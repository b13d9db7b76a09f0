"""LRU cache semantics: eviction order, capacity bounds, key hygiene."""

import pytest

from repro.errors import ConfigError
from repro.graph.path import Path
from repro.ranking import Strategy, TrainingDataConfig
from repro.serving import CandidateCache, CandidateEntry, LRUCache


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


class TestGetOrMake:
    def test_miss_makes_and_stores_then_hits(self):
        cache = LRUCache(2)
        assert cache.get_or_make("a", lambda: 1) == (1, False)
        assert cache.get_or_make("a", lambda: 2) == (1, True)
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)

    def test_a_failed_make_stores_nothing(self):
        cache = LRUCache(2)

        def fail():
            raise ValueError("no value")

        with pytest.raises(ValueError):
            cache.get_or_make("a", fail)
        assert "a" not in cache
        assert cache.get_or_make("a", lambda: 3) == (3, False)

    def test_find_refreshes_recency_and_counts_nothing(self):
        cache = LRUCache(2)
        assert cache.find("a") is None
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.find("a") == 1   # refreshes: b is now the LRU entry
        cache.put("c", 3)
        assert "b" not in cache
        assert (cache.stats.hits, cache.stats.misses) == (0, 0)
        cache.count_hit()  # where the found value is used
        assert (cache.stats.hits, cache.stats.misses) == (1, 0)


class TestScoreMemo:
    def test_scores_are_tagged_with_their_version(self, tiny_network):
        entry = CandidateEntry([Path(tiny_network, [0, 1, 2])])
        assert entry.scores_for("v1") is None
        entry.scored = ("v1", [0.75])
        assert entry.scores_for("v1") == [0.75]
        assert entry.scores_for("v2") is None

    def test_scores_leave_with_their_entry(self, tiny_network):
        config = TrainingDataConfig(strategy=Strategy.TKDI, k=3)
        cache = CandidateCache(capacity=1)
        cache.store(0, 5, config, [Path(tiny_network, [0, 1, 2])])
        cache.probe(0, 5, config).scored = ("v1", [0.5])
        cache.store(1, 5, config, [Path(tiny_network, [1, 2])])  # evicts
        entry, hit = cache.resolve(
            0, 5, config, lambda: [Path(tiny_network, [0, 1, 2])])
        assert not hit
        assert entry.scores_for("v1") is None

    def test_restoring_a_set_drops_its_scores(self, tiny_network):
        config = TrainingDataConfig(strategy=Strategy.TKDI, k=3)
        cache = CandidateCache(capacity=4)
        paths = [Path(tiny_network, [0, 1, 2])]
        cache.store(0, 5, config, paths)
        cache.probe(0, 5, config).scored = ("v1", [0.5])
        cache.store(0, 5, config, paths)
        assert cache.probe(0, 5, config).scores_for("v1") is None


class TestCandidateCacheInvalidation:
    """Keys hold no graph state (a built network is sealed); the caller
    owns invalidation through ``clear``."""

    def test_networkless_cache_keeps_legacy_keys(self, tiny_network):
        config = TrainingDataConfig(strategy=Strategy.TKDI, k=3)
        cache = CandidateCache(capacity=4)
        key = CandidateCache.key_for(0, 5, config)
        assert key == (0, 5, "TkDI", 3, config.diversity_threshold,
                       config.examine_limit)
        cache.store(0, 5, config, [Path(tiny_network, [0, 1, 2])])
        assert cache.lookup(0, 5, config) is not None
        cache.clear()
        assert cache.lookup(0, 5, config) is None
