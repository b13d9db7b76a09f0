"""LRU cache semantics: eviction order, capacity bounds, key hygiene."""

import pytest

from repro.errors import ConfigError
from repro.graph.path import Path
from repro.ranking import Strategy, TrainingDataConfig
from repro.serving import CandidateCache, LRUCache, ScoreCache
from repro.serving.cache import carve_budget


class TestLRUCache:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigError):
            LRUCache(0)

    def test_get_miss_returns_default(self):
        cache = LRUCache(2)
        assert cache.get("absent") is None
        assert cache.get("absent", default=-1) == -1
        assert cache.stats.misses == 2

    def test_capacity_is_a_hard_bound(self):
        cache = LRUCache(3)
        for i in range(50):
            cache.put(i, i * 10)
            assert len(cache) <= 3
        assert cache.stats.evictions == 47

    def test_evicts_least_recently_used(self):
        cache = LRUCache(3)
        for key in "abc":
            cache.put(key, key.upper())
        cache.get("a")          # refresh: b is now the LRU entry
        cache.put("d", "D")
        assert "b" not in cache
        assert set(cache.keys()) == {"a", "c", "d"}

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 99)       # rewrite refreshes recency too
        cache.put("c", 3)        # evicts b, not a
        assert cache.peek("a") == 99
        assert "b" not in cache

    def test_keys_ordered_lru_first(self):
        cache = LRUCache(3)
        for key in "abc":
            cache.put(key, key)
        cache.get("b")
        assert cache.keys() == ["a", "c", "b"]

    def test_stats_track_hit_rate(self):
        cache = LRUCache(4)
        cache.put("x", 1)
        cache.get("x")
        cache.get("x")
        cache.get("y")
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_clear_empties_but_keeps_stats(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1

    def test_peek_does_not_touch_recency_or_stats(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.peek("a")
        cache.put("c", 3)        # a is still the LRU entry despite the peek
        assert "a" not in cache
        assert cache.stats.lookups == 0


class TestCandidateCache:
    def _paths(self, network):
        return [Path(network, [0, 1, 2]), Path(network, [0, 3, 4, 5])]

    def test_roundtrip(self, tiny_network):
        config = TrainingDataConfig(strategy=Strategy.TKDI, k=3)
        cache = CandidateCache(capacity=4)
        assert cache.lookup(0, 5, config) is None
        cache.store(0, 5, config, self._paths(tiny_network))
        cached = cache.lookup(0, 5, config)
        assert [p.vertices for p in cached] == [(0, 1, 2), (0, 3, 4, 5)]

    def test_key_separates_strategy_and_k(self, tiny_network):
        cache = CandidateCache(capacity=8)
        tkdi3 = TrainingDataConfig(strategy=Strategy.TKDI, k=3)
        cache.store(0, 5, tkdi3, self._paths(tiny_network))
        assert cache.lookup(
            0, 5, TrainingDataConfig(strategy=Strategy.TKDI, k=4)) is None
        assert cache.lookup(
            0, 5, TrainingDataConfig(strategy=Strategy.D_TKDI, k=3)) is None
        assert cache.lookup(5, 0, tkdi3) is None
        assert cache.lookup(0, 5, tkdi3) is not None

    def test_key_separates_diversity_parameters(self, tiny_network):
        cache = CandidateCache(capacity=8)
        base = TrainingDataConfig(strategy=Strategy.D_TKDI, k=3,
                                  diversity_threshold=0.8, examine_limit=100)
        cache.store(0, 5, base, self._paths(tiny_network))
        assert cache.lookup(0, 5, TrainingDataConfig(
            strategy=Strategy.D_TKDI, k=3, diversity_threshold=0.3,
            examine_limit=100)) is None
        assert cache.lookup(0, 5, TrainingDataConfig(
            strategy=Strategy.D_TKDI, k=3, diversity_threshold=0.8,
            examine_limit=50)) is None
        assert cache.lookup(0, 5, base) is not None

    def test_returns_fresh_list(self, tiny_network):
        config = TrainingDataConfig(strategy=Strategy.TKDI, k=3)
        cache = CandidateCache(capacity=4)
        cache.store(0, 5, config, self._paths(tiny_network))
        cache.lookup(0, 5, config).clear()   # caller mutation is isolated
        assert len(cache.lookup(0, 5, config)) == 2


class TestScoreCache:
    def test_keyed_by_model_version(self, tiny_network):
        path = Path(tiny_network, [0, 1, 2])
        cache = ScoreCache(capacity=4)
        cache.store("v1", path, 0.75)
        assert cache.lookup("v1", path) == pytest.approx(0.75)
        assert cache.lookup("v2", path) is None

    def test_same_vertices_share_an_entry(self, tiny_network):
        cache = ScoreCache(capacity=4)
        cache.store("v1", Path(tiny_network, [0, 1, 2]), 0.5)
        assert cache.lookup(
            "v1", Path(tiny_network, [0, 1, 2])) == pytest.approx(0.5)


class TestCandidateCacheInvalidation:
    """A network-aware cache must never serve candidates for a mutated graph."""

    def test_mutation_invalidates_entries(self, tiny_network):
        import copy

        network = copy.deepcopy(tiny_network)
        config = TrainingDataConfig(strategy=Strategy.TKDI, k=3)
        cache = CandidateCache(capacity=4, network=network)
        cache.store(0, 5, config, [Path(network, [0, 1, 2])])
        assert cache.lookup(0, 5, config) is not None
        network.add_edge(3, 1)  # a new road may change the candidate set
        assert cache.lookup(0, 5, config) is None

    def test_restored_after_fresh_store(self, tiny_network):
        import copy

        network = copy.deepcopy(tiny_network)
        config = TrainingDataConfig(strategy=Strategy.TKDI, k=3)
        cache = CandidateCache(capacity=4, network=network)
        cache.store(0, 5, config, [Path(network, [0, 1, 2])])
        network.add_edge(3, 1)
        cache.store(0, 5, config, [Path(network, [0, 1, 2])])
        assert cache.lookup(0, 5, config) is not None

    def test_networkless_cache_keeps_legacy_keys(self, tiny_network):
        config = TrainingDataConfig(strategy=Strategy.TKDI, k=3)
        cache = CandidateCache(capacity=4)
        key = CandidateCache.key_for(0, 5, config)
        assert key == (0, 5, "TkDI", 3, config.diversity_threshold,
                       config.examine_limit)
        cache.store(0, 5, config, [Path(tiny_network, [0, 1, 2])])
        assert cache.lookup(0, 5, config) is not None


class _FakePath:
    """Stands in for a Path in score-cache keys (only ``vertices`` is read)."""

    __slots__ = ("vertices",)

    def __init__(self, *vertices):
        self.vertices = tuple(vertices)


class TestScoreCacheQuotas:
    def test_minority_split_survives_majority_churn(self):
        """The whole point of split quotas: a 10% variant's entries must
        not be evicted by the 90% variant's churn."""
        cache = ScoreCache(capacity=100, quotas={"big": 0.9, "small": 0.1})
        cache.store("small", _FakePath(0, 1), 0.5)
        for i in range(500):
            cache.store("big", _FakePath(i, i + 1), float(i))
        assert cache.lookup("small", _FakePath(0, 1)) == pytest.approx(0.5)

    def test_without_quotas_majority_churn_evicts(self):
        """Baseline behaviour the quotas exist to fix."""
        cache = ScoreCache(capacity=100)
        cache.store("small", _FakePath(0, 1), 0.5)
        for i in range(500):
            cache.store("big", _FakePath(i, i + 1), float(i))
        assert cache.lookup("small", _FakePath(0, 1)) is None

    def test_unquoted_version_uses_shared_segment(self):
        cache = ScoreCache(capacity=100, quotas={"a": 0.5, "b": 0.5})
        cache.store("other", _FakePath(7, 8), 1.25)
        assert cache.lookup("other", _FakePath(7, 8)) == pytest.approx(1.25)
        assert cache.lookup("a", _FakePath(7, 8)) is None

    def test_shared_segment_keeps_working_capacity(self):
        """Out-of-split pinned versions must keep a real cache, not the
        one-entry sliver that fully-allocated quota weights would leave."""
        cache = ScoreCache(capacity=800, quotas={"a": 0.5, "b": 0.5})
        for i in range(50):
            cache.store("pinned", _FakePath(i, i + 1), float(i))
        hits = sum(cache.lookup("pinned", _FakePath(i, i + 1)) is not None
                   for i in range(50))
        assert hits == 50  # capacity // SHARED_FRACTION = 100 entries
        assert cache.capacity <= 800

    def test_stats_aggregate_across_segments(self):
        cache = ScoreCache(capacity=100, quotas={"a": 0.5, "b": 0.5})
        cache.store("a", _FakePath(0, 1), 0.1)
        cache.lookup("a", _FakePath(0, 1))
        cache.lookup("b", _FakePath(0, 1))
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        quota_stats = cache.quota_stats()
        assert set(quota_stats) == {"a", "b", "(shared)"}
        assert quota_stats["a"]["hits"] == 1

    def test_lookup_many_respects_segments(self):
        cache = ScoreCache(capacity=100, quotas={"a": 0.5})
        paths = [_FakePath(0, 1), _FakePath(1, 2)]
        cache.store_many("a", [(paths[0], 0.5)])
        found = cache.lookup_many("a", paths)
        assert found == {(0, 1): 0.5}

    def test_clear_empties_every_segment(self):
        cache = ScoreCache(capacity=100, quotas={"a": 0.5})
        cache.store("a", _FakePath(0, 1), 0.5)
        cache.store("other", _FakePath(2, 3), 0.5)
        cache.clear()
        assert len(cache) == 0

    def test_invalid_quotas_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            ScoreCache(capacity=10, quotas={"": 1.0})
        with pytest.raises(ConfigError):
            ScoreCache(capacity=10, quotas={"a": 0.0})
        with pytest.raises(ConfigError):
            ScoreCache(capacity=10, quotas=[("a", 1.0), ("a", 1.0)])


class TestCarveBudget:
    """The proportional integer shares behind the score-cache quotas."""

    def test_proportional_with_floor(self):
        shares = carve_budget(100, [60, 30, 10])
        assert shares == [60, 30, 10]
        # A dominant weight's share is trimmed so the floor of one entry
        # per remaining share still fits inside the total.
        assert carve_budget(4, [1000, 1, 1]) == [2, 1, 1]

    def test_never_exceeds_total_when_budget_covers_floors(self):
        assert sum(carve_budget(10, [1, 1, 1, 1])) <= 10
        assert sum(carve_budget(7, [97, 1, 1, 1])) <= 7

    def test_floor_of_one_entry_per_share_wins_over_tiny_budgets(self):
        shares = carve_budget(2, [5, 5, 5])
        assert shares == [1, 1, 1]  # sum == len(weights) > total, by design

    def test_validation(self):
        with pytest.raises(ConfigError):
            carve_budget(0, [1])
        with pytest.raises(ConfigError):
            carve_budget(10, [0, 0])
