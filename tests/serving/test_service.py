"""RankingService facade: ranking, caching, fallback, instrumentation."""

import pytest

from repro.core.model import PathRank
from repro.errors import ServingError, TrainingError
from repro.graph import RoadCategory, RoadNetwork, shortest_path
from repro.serving import (
    CircuitBreaker,
    ModelRegistry,
    RankingService,
    RankRequest,
    ServingConfig,
)
from repro.serving.resilience import BREAKER_MIN_SAMPLES


@pytest.fixture
def empty_service(tiny_network, registry, candidates_config) -> RankingService:
    """A service whose registry has no active model."""
    return RankingService(tiny_network, registry,
                          ServingConfig(candidates=candidates_config))


class TestModelServing:
    def test_results_sorted_best_first(self, service):
        response = service.rank(RankRequest(source=0, target=5))
        assert response.served_by == "model"
        assert response.model_version == "v0001"
        scores = [r.score for r in response.results]
        assert scores == sorted(scores, reverse=True)
        assert [r.position for r in response.results] == \
            list(range(1, len(scores) + 1))
        assert response.top.path.source == 0
        assert response.top.path.target == 5

    def test_repeat_query_hits_candidate_cache(self, service):
        cold = service.rank(RankRequest(source=0, target=5))
        warm = service.rank(RankRequest(source=0, target=5))
        assert not cold.candidate_cache_hit
        assert warm.candidate_cache_hit
        assert [r.path.vertices for r in warm.results] == \
            [r.path.vertices for r in cold.results]

    def test_per_request_k_override(self, service):
        narrow = service.rank(RankRequest(source=0, target=5, k=1))
        wide = service.rank(RankRequest(source=0, target=5, k=3))
        assert len(narrow.results) == 1
        assert len(wide.results) > 1
        # Different k values must not collide in the candidate cache.
        assert not wide.candidate_cache_hit

    def test_batch_coalesces_forward_passes(self, service):
        states = [service.prepare(service.admit(request)) for request in (
            RankRequest(source=0, target=5),
            RankRequest(source=3, target=2),
            RankRequest(source=1, target=5))]
        service.score_states(states)
        responses = [service.assemble(state) for state in states]
        assert all(r.served_by == "model" for r in responses)
        assert service.scorer.batches_run == 1

    def test_counters_and_latency_recorded(self, service):
        service.rank(RankRequest(source=0, target=5))
        service.rank(RankRequest(source=3, target=2))
        stats = service.stats()
        assert stats["counters"]["requests"] == 2
        assert stats["counters"]["model_served"] == 2
        assert stats["latency"]["count"] == 2
        assert stats["latency"]["p95_ms"] >= 0.0
        assert stats["active_version"] == "v0001"


class TestFallback:
    def test_no_model_serves_shortest_path(self, tiny_network, empty_service):
        response = empty_service.rank(RankRequest(source=0, target=5))
        assert response.served_by == "fallback"
        assert response.ok
        assert response.model_version is None
        expected = shortest_path(tiny_network, 0, 5)
        assert response.top.path.vertices == expected.vertices
        assert empty_service.counters["fallback_served"].value == 1

    def test_no_model_skips_candidate_generation(self, empty_service):
        empty_service.rank(RankRequest(source=0, target=5))
        assert empty_service.candidate_cache.stats.lookups == 0

    def test_scoring_failure_degrades_to_fallback(self, service, monkeypatch):
        def explode(self, paths):
            raise TrainingError("weights corrupted")

        monkeypatch.setattr(PathRank, "score_paths", explode)
        response = service.rank(RankRequest(source=0, target=5))
        assert response.served_by == "fallback"
        assert response.ok
        assert "weights corrupted" in response.error

    def test_fallback_disabled_fails_the_request(self, tiny_network, registry,
                                                candidates_config):
        service = RankingService(
            tiny_network, registry,
            ServingConfig(candidates=candidates_config, fallback_to_shortest=False))
        response = service.rank(RankRequest(source=0, target=5))
        assert response.served_by == "error"
        assert not response.ok
        assert response.results == ()
        assert service.counters["failed"].value == 1

    def test_unreachable_target_is_an_error_response(self, tmp_path,
                                                    candidates_config):
        network = RoadNetwork(name="disconnected")
        for vid, x in enumerate((0.0, 100.0, 500.0)):
            network.add_vertex(vid, x, 0.0)
        network.add_two_way(0, 1, length=100.0, category=RoadCategory.LOCAL)
        # vertex 2 is isolated: no path can reach it.
        registry = ModelRegistry(tmp_path / "models", network)
        service = RankingService(network, registry,
                                 ServingConfig(candidates=candidates_config))
        response = service.rank(RankRequest(source=0, target=2))
        assert response.served_by == "error"
        assert "no path" in response.error.lower()


class TestLifecycle:
    def test_activate_unknown_version_raises(self, service):
        with pytest.raises(ServingError, match="v9999"):
            service.activate("v9999")

    def test_hot_swap_counted_and_visible(self, tiny_network, registry, service,
                                         make_ranker):
        registry.publish(make_ranker(tiny_network, seed=9), version="v0002")
        service.activate("v0002")
        assert service.counters["hot_swaps"].value == 1
        response = service.rank(RankRequest(source=0, target=5))
        assert response.model_version == "v0002"

    def test_swap_invalidates_scores_not_candidates(self, tiny_network,
                                                    registry, service,
                                                    make_ranker):
        before = service.rank(RankRequest(source=0, target=5))
        registry.publish(make_ranker(tiny_network, seed=9), version="v0002")
        service.activate("v0002")
        after = service.rank(RankRequest(source=0, target=5))
        # Candidates come from the cache, but scores are recomputed.
        assert after.candidate_cache_hit
        assert [r.path.vertices for r in after.results] != [] and \
            {r.path.vertices for r in after.results} == \
            {r.path.vertices for r in before.results}
        assert [r.score for r in after.results] != \
            [r.score for r in before.results]


ALL_PAIRS = [(s, t) for s in range(6) for t in range(6) if s != t]


class TestOneServiceOneLane:
    """A service owns one candidate cache (with its score memos), one
    scorer and one breaker, and every stage reads them directly."""

    def test_two_services_keep_their_own_caches(
            self, tiny_network, registry, service, candidates_config):
        second = RankingService(tiny_network, registry,
                                ServingConfig(candidates=candidates_config))
        service.rank(RankRequest(source=0, target=5))
        assert second.candidate_cache is not service.candidate_cache
        assert second.stats()["score_cache"]["misses"] == 0
        assert second.stats()["candidate_cache"]["misses"] == 0
        assert service.stats()["candidate_cache"]["misses"] == 1

    def test_zero_score_cache_size_leaves_no_score_memo(
            self, tiny_network, registry, make_ranker, candidates_config):
        registry.publish(make_ranker(tiny_network, seed=1), activate=True)
        service = RankingService(tiny_network, registry, ServingConfig(
            candidates=candidates_config, score_cache_size=0))
        service.rank(RankRequest(source=0, target=5))
        entry = service.candidate_cache.probe(0, 5, candidates_config)
        assert entry.scored is None
        assert service.stats()["score_cache"] == {"disabled": True}

    def test_score_cache_size_zero_disables_memoisation(
            self, tiny_network, registry, make_ranker, candidates_config):
        registry.publish(make_ranker(tiny_network, seed=1), activate=True)
        service = RankingService(tiny_network, registry, ServingConfig(
            candidates=candidates_config, score_cache_size=0))
        service.rank(RankRequest(source=0, target=2))
        service.rank(RankRequest(source=0, target=2))
        assert service.scorer.batches_run == 2  # no memoised skip

    def test_a_killed_scorer_trips_the_service_breaker(
            self, tiny_network, registry, make_ranker, candidates_config,
            monkeypatch):
        """Every scoring call fails: the individual rescue answers each of
        the first groups with the fallback, then the breaker opens and
        later requests degrade to the fallback without touching the
        scorer."""
        registry.publish(make_ranker(tiny_network, seed=1), activate=True)
        service = RankingService(tiny_network, registry, ServingConfig(
            candidates=candidates_config))
        # A clock that stands still: the breaker never cools down here.
        service.breaker = CircuitBreaker(clock=lambda: 0.0)
        calls = []

        def killed(model, candidate_lists):
            calls.append(len(candidate_lists))
            raise ServingError("scorer killed")

        monkeypatch.setattr(service.scorer, "score_many", killed)
        rescued = [service.rank(RankRequest(source=0, target=t))
                   for t in (2, 5) * (BREAKER_MIN_SAMPLES // 2)]
        touched = len(calls)
        degraded = service.rank(RankRequest(source=3, target=5))
        assert len(calls) == touched
        assert [(r.served_by, r.error) for r in rescued] \
            == [("fallback", "scorer killed")] * BREAKER_MIN_SAMPLES
        assert (degraded.served_by, degraded.error_code, degraded.error) \
            == ("fallback", "breaker_open", "circuit breaker open")
        assert (service.breaker.state, service.breaker.trips) == ("open", 1)
        exported = service.metrics.export()
        assert exported["resilience.breaker.state"] == "open"
        assert exported["resilience.breaker.trips"] == 1
        assert exported["resilience.breaker_degraded"] == 1
