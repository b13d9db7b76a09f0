"""Pipeline stages, A/B traffic splitting, pinning, and warm-up."""

import pytest

from repro.core.model import PathRank
from repro.errors import ServingError, TrainingError
from repro.obs.export import prometheus_lines
from repro.serving import (
    RankingService,
    RankRequest,
    ServingConfig,
    assign_split,
    normalise_split,
)


@pytest.fixture
def ab_service(tiny_network, registry, make_ranker,
               candidates_config) -> RankingService:
    """Two published versions behind a 70/30 traffic split."""
    registry.publish(make_ranker(tiny_network, seed=1), version="v0001",
                     activate=True)
    registry.publish(make_ranker(tiny_network, seed=2), version="v0002")
    return RankingService(
        tiny_network, registry,
        ServingConfig(candidates=candidates_config,
                      traffic_split={"v0001": 0.7, "v0002": 0.3}))


class TestSplitAssignment:
    def test_weights_normalised(self):
        split = normalise_split({"a": 3.0, "b": 1.0})
        assert split == (("a", 0.75), ("b", 0.25))

    def test_invalid_splits_rejected(self):
        with pytest.raises(ServingError):
            normalise_split({})
        with pytest.raises(ServingError):
            normalise_split({"a": 0.0})
        with pytest.raises(ServingError):
            normalise_split([("a", 1.0), ("a", 2.0)])
        with pytest.raises(ServingError):
            normalise_split([("", 1.0)])

    def test_assignment_deterministic(self):
        split = normalise_split({"a": 0.5, "b": 0.5})
        request = RankRequest(source=1, target=2, request_id=42)
        assert assign_split(request, split) == assign_split(request, split)

    def test_assignment_proportions(self):
        split = normalise_split({"a": 0.75, "b": 0.25})
        draws = [assign_split(RankRequest(source=0, target=1, request_id=i),
                              split)
                 for i in range(2000)]
        fraction_b = draws.count("b") / len(draws)
        assert 0.2 < fraction_b < 0.3

    def test_single_version_always_wins(self):
        split = normalise_split({"only": 1.0})
        for i in range(50):
            request = RankRequest(source=i, target=i + 1, request_id=i)
            assert assign_split(request, split) == "only"


class TestABServing:
    def test_both_versions_serve(self, ab_service):
        versions = {
            ab_service.rank(RankRequest(source=0, target=5,
                                        request_id=i)).model_version
            for i in range(40)
        }
        assert versions == {"v0001", "v0002"}

    def test_split_is_sticky_per_request_identity(self, ab_service):
        request = RankRequest(source=0, target=5, request_id=7)
        first = ab_service.rank(request)
        second = ab_service.rank(request)
        assert first.model_version == second.model_version

    def test_split_metrics_separate_variants(self, ab_service):
        for i in range(30):
            ab_service.rank(RankRequest(source=0, target=5, request_id=i))
        splits = ab_service.stats()["splits"]
        assert set(splits) == {"v0001", "v0002"}
        total = sum(s["counters"]["requests"] for s in splits.values())
        assert total == 30
        assert all(s["counters"]["model_served"] > 0 for s in splits.values())
        assert all(s["latency"]["count"] == s["counters"]["requests"]
                   for s in splits.values())

    def test_dotted_version_name_is_data(self, tiny_network, registry,
                                         make_ranker, candidates_config):
        """A version name that is not one metric segment still gets its
        own split books: versions key data, they are not metric names."""
        registry.publish(make_ranker(tiny_network, seed=1), version="v0001",
                         activate=True)
        registry.publish(make_ranker(tiny_network, seed=2), version="m.v2")
        service = RankingService(
            tiny_network, registry,
            ServingConfig(candidates=candidates_config,
                          traffic_split={"v0001": 0.5, "m.v2": 0.5}))
        responses = [service.rank(RankRequest(source=0, target=5,
                                              request_id=i))
                     for i in range(20)]
        dotted = [r for r in responses if r.model_version == "m.v2"]
        assert dotted
        assert all(r.served_by == "model" for r in dotted)
        counters = service.stats()["splits"]["m.v2"]["counters"]
        assert counters["requests"] == len(dotted)
        assert counters["model_served"] == len(dotted)
        exported = service.metrics.export()
        assert exported["split.m.v2.counters.requests"] == len(dotted)
        assert prometheus_lines(service.metrics)

    def test_split_survives_hot_swap_of_active(self, ab_service, tiny_network,
                                               registry, make_ranker):
        """Activating a new version must not break the split's pinned
        targets: v0001/v0002 keep serving their share."""
        registry.publish(make_ranker(tiny_network, seed=3), version="v0003")
        ab_service.activate("v0003")
        versions = {
            ab_service.rank(RankRequest(source=0, target=5,
                                        request_id=i)).model_version
            for i in range(40)
        }
        assert versions == {"v0001", "v0002"}


class TestVersionPinning:
    def test_pinned_request_overrides_split_and_active(self, ab_service):
        response = ab_service.rank(
            RankRequest(source=0, target=5, model_version="v0002"))
        assert response.served_by == "model"
        assert response.model_version == "v0002"

    def test_pinned_scores_differ_between_versions(self, ab_service):
        a = ab_service.rank(RankRequest(source=0, target=5,
                                        model_version="v0001"))
        b = ab_service.rank(RankRequest(source=0, target=5,
                                        model_version="v0002"))
        assert [r.score for r in a.results] != [r.score for r in b.results]

    def test_unpublished_pin_is_an_error_response(self, ab_service):
        response = ab_service.rank(
            RankRequest(source=0, target=5, model_version="v9999"))
        assert response.served_by == "error"
        assert "v9999" in response.error

    def test_registry_resolve_matches_active_fast_path(self, ab_service):
        registry = ab_service.registry
        assert registry.resolve("v0001") is registry.snapshot()
        assert registry.resolve(None) is registry.snapshot()
        assert registry.resolve("v0002").version == "v0002"

    def test_unpin_releases_resident_snapshot(self, ab_service):
        registry = ab_service.registry
        first = registry.resolve("v0002")
        registry.unpin("v0002")
        second = registry.resolve("v0002")
        assert first is not second
        assert first.version == second.version == "v0002"

    def test_activate_does_not_grow_pinned_set(self, ab_service,
                                               tiny_network, registry,
                                               make_ranker):
        """Hot-swaps must not pin every superseded model into memory."""
        registry.publish(make_ranker(tiny_network, seed=4), version="v0004")
        registry.publish(make_ranker(tiny_network, seed=5), version="v0005")
        before = set(registry._pinned)
        ab_service.activate("v0004")
        ab_service.activate("v0005")
        # Only versions something actually resolved/pinned stay resident.
        assert set(registry._pinned) == before

    def test_hostile_k_is_error_response_not_exception(self, ab_service):
        response = ab_service.rank(RankRequest(source=0, target=5, k=0))
        assert response.served_by == "error"
        assert "k must be" in response.error


class TestStages:
    def test_admit_prepare_score_assemble_roundtrip(self, service):
        request = RankRequest(source=0, target=5)
        state = service.admit(request)
        assert state.error is None and state.active is not None
        service.prepare(state)
        assert state.paths and not state.cache_hit
        service.score_states([state])
        assert state.scores is not None
        assert len(state.scores) == len(state.paths)
        response = service.assemble(state)
        assert response.served_by == "model"
        assert state.response is response
        assert service.counters["requests"].value == 1

    def test_assemble_without_recording(self, service):
        state = service.admit(RankRequest(source=0, target=5))
        service.prepare(state)
        service.score_states([state])
        service.assemble(state, record=False)
        assert service.counters["requests"].value == 0
        assert service.latency.count == 0

    def test_score_states_groups_by_snapshot(self, ab_service):
        states = [
            ab_service.admit(RankRequest(source=0, target=5,
                                         model_version="v0001")),
            ab_service.admit(RankRequest(source=0, target=5,
                                         model_version="v0002")),
        ]
        for state in states:
            ab_service.prepare(state)
        ab_service.score_states(states)
        assert states[0].scores != states[1].scores


class TestWarmup:
    def test_warm_up_replays_unique_requests(self, service):
        mix = [RankRequest(source=0, target=5),
               RankRequest(source=3, target=2),
               RankRequest(source=0, target=5)]
        assert service.warm_up(mix) == 2
        assert service.counters["requests"].value == 0
        assert service.latency.count == 0
        response = service.rank(RankRequest(source=0, target=5))
        assert response.candidate_cache_hit

    def test_warm_up_primes_score_cache(self, service):
        service.warm_up([RankRequest(source=0, target=5)])
        before = service.scorer.cache_hits
        service.rank(RankRequest(source=0, target=5))
        assert service.scorer.cache_hits > before


class TestPerRequestDegradation:
    def test_poisoned_request_in_sync_batch_degrades_alone(self, service,
                                                           monkeypatch):
        real_score_paths = PathRank.score_paths
        probe = service.admit(RankRequest(source=0, target=5))
        service.prepare(probe)
        poison_keys = {p.vertices for p in probe.paths}
        service.candidate_cache.clear()

        def explode_on_poison(self, paths, **kwargs):
            if any(p.vertices in poison_keys for p in paths):
                raise TrainingError("bad weights for this path")
            return real_score_paths(self, paths, **kwargs)

        monkeypatch.setattr(PathRank, "score_paths", explode_on_poison)
        responses = service.rank_batch([
            RankRequest(source=0, target=5),
            RankRequest(source=3, target=2),
            RankRequest(source=1, target=5),
        ])
        assert responses[0].served_by == "fallback"
        assert "bad weights" in responses[0].error
        assert responses[1].served_by == "model"
        assert responses[2].served_by == "model"

    def test_score_cache_disabled_by_zero_size(self, tiny_network, registry,
                                               make_ranker,
                                               candidates_config):
        registry.publish(make_ranker(tiny_network, seed=1), activate=True)
        service = RankingService(
            tiny_network, registry,
            ServingConfig(candidates=candidates_config, score_cache_size=0))
        assert service.score_cache is None
        service.rank(RankRequest(source=0, target=5))
        service.rank(RankRequest(source=0, target=5))
        assert service.scorer.cache_hits == 0
        assert service.stats()["score_cache"] == {"disabled": True}
