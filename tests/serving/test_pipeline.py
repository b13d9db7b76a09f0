"""Pipeline stages, per-snapshot scoring groups, and warm-up."""

import time

import pytest

from repro.core.model import PathRank
from repro.errors import TrainingError
from repro.serving import (
    RankingService,
    RankRequest,
    ServingConfig,
)
from repro.serving import service as service_module


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

    def test_score_states_groups_by_snapshot(self, service, tiny_network,
                                             registry, make_ranker):
        """A flush that straddles a hot-swap holds two snapshot groups,
        and each group scores with its own snapshot's model."""
        registry.publish(make_ranker(tiny_network, seed=2), version="v0002")
        before = service.admit(RankRequest(source=0, target=5))
        service.activate("v0002")
        after = service.admit(RankRequest(source=0, target=5))
        states = [before, after]
        for state in states:
            service.prepare(state)
        service.score_states(states)
        assert [state.active.version for state in states] \
            == ["v0001", "v0002"]
        for state in states:
            expected = state.active.model.score_paths(state.paths)
            assert state.scores == pytest.approx(expected.tolist(),
                                                 abs=1e-12)
        assert before.scores != after.scores
        assert [service.assemble(state).model_version for state in states] \
            == ["v0001", "v0002"]

    def test_hostile_k_is_error_response_not_exception(self, service):
        response = service.rank(RankRequest(source=0, target=5, k=0))
        assert response.served_by == "error"
        assert "k must be" in response.error


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
        before = service.stats()["score_cache"]["hits"]
        response = service.rank(RankRequest(source=0, target=5))
        assert service.stats()["score_cache"]["hits"] \
            == before + len(response.results)

    def test_warm_up_states_carry_no_deadline(self, tiny_network, registry,
                                              make_ranker,
                                              candidates_config,
                                              monkeypatch):
        """Warm-up is deploy-time work, not a request: a 2 ms service
        deadline must not expire the mix while each state waits behind
        a 10 ms candidate stage."""
        registry.publish(make_ranker(tiny_network, seed=1), activate=True)
        service = RankingService(tiny_network, registry, ServingConfig(
            candidates=candidates_config,
            deadline_ms=2.0))
        real = service_module.generate_candidates

        def slow(*args, **kwargs):
            time.sleep(0.01)
            return real(*args, **kwargs)

        monkeypatch.setattr(service_module, "generate_candidates", slow)
        mix = [RankRequest(source=s, target=t)
               for s, t in ((0, 5), (3, 2), (1, 5), (5, 0))]
        assert service.warm_up(mix) == 4
        assert all(service.candidate_cache.lookup(
            request.source, request.target, candidates_config) is not None
            for request in mix)
        assert service.res_counters["deadline_exceeded"].value == 0


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
        states = [service.prepare(service.admit(request)) for request in (
            RankRequest(source=0, target=5),
            RankRequest(source=3, target=2),
            RankRequest(source=1, target=5))]
        service.score_states(states)
        responses = [service.assemble(state) for state in states]
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
        first = service.rank(RankRequest(source=0, target=5))
        service.rank(RankRequest(source=0, target=5))
        assert service.scorer.as_dict()["paths_scored"] \
            == 2 * len(first.results)
        assert service.stats()["score_cache"] == {"disabled": True}
