"""ServingEngine: coalescing by group commit, parity, lifecycle, warm-up."""

import inspect
import sys
import threading
import time
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.model import PathRank
from repro.errors import NoPathError, ServingError
from repro.serving import (
    ModelRegistry,
    RankingService,
    RankRequest,
    ServingConfig,
    ServingEngine,
)
from repro.serving import service as service_module

ALL_PAIRS = [(s, t) for s in range(6) for t in range(6) if s != t]
#: Requests for the generated stream: pairs that turn hot once asked,
#: and two that admission refuses.
STREAM_POOL = ([RankRequest(source=s, target=t) for s, t in ALL_PAIRS[:6]]
               + [RankRequest(source=99, target=5),
                  RankRequest(source=0, target=5, k=0)])


def batching(service: RankingService, max_batch_size: int) -> RankingService:
    """A fresh service like ``service`` whose forward passes take up to
    ``max_batch_size`` paths."""
    return RankingService(service.network, service.registry,
                          replace(service.config,
                                  max_batch_size=max_batch_size))


class _PoisonScorer:
    """Stands in for the service's BatchingScorer and always fails."""

    def score_many(self, model, candidate_lists):
        raise ServingError("scorer poisoned")


@pytest.fixture
def engine(service) -> ServingEngine:
    with ServingEngine(service, concurrency=4) as eng:
        yield eng


class TestFrontDoor:
    def test_rank_matches_sync_service(self, tiny_network, registry,
                                       make_ranker, candidates_config,
                                       engine, service):
        # A second, independent service gives the synchronous reference.
        sync = RankingService(service.network, service.registry,
                              service.config)
        request = RankRequest(source=0, target=5)
        mine = engine.rank(request)
        theirs = sync.rank(request)
        assert mine.served_by == theirs.served_by == "model"
        assert [r.path.vertices for r in mine.results] == \
            [r.path.vertices for r in theirs.results]
        assert [r.score for r in mine.results] == \
            pytest.approx([r.score for r in theirs.results], abs=1e-6)

    def test_rank_batch_is_element_wise_identical_to_sync(self, service,
                                                          engine):
        requests = [RankRequest(source=s, target=t, request_id=i)
                    for i, (s, t) in enumerate(ALL_PAIRS)]
        sync = RankingService(service.network, service.registry,
                              service.config)
        expected = [sync.rank(request) for request in requests]
        actual = engine.rank_batch(requests)
        assert len(actual) == len(expected)
        for mine, theirs in zip(actual, expected):
            assert mine.request == theirs.request
            assert mine.served_by == theirs.served_by
            assert mine.model_version == theirs.model_version
            assert [r.path.vertices for r in mine.results] == \
                [r.path.vertices for r in theirs.results]
            assert [r.position for r in mine.results] == \
                [r.position for r in theirs.results]
            assert [r.score for r in mine.results] == \
                pytest.approx([r.score for r in theirs.results], abs=1e-6)

    def test_concurrent_submitters_coalesce(self, service):
        """Requests submitted by many threads share scoring flushes."""
        with ServingEngine(batching(service, 512), concurrency=4) as engine:
            barrier = threading.Barrier(8)
            responses = {}

            def client(index: int) -> None:
                source, target = ALL_PAIRS[index % len(ALL_PAIRS)]
                barrier.wait()
                responses[index] = engine.rank(
                    RankRequest(source=source, target=target,
                                request_id=index))

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            occupancy = engine.occupancy()
        assert len(responses) == 8
        assert all(r.served_by == "model" for r in responses.values())
        # Eight concurrent requests must not have cost eight flushes.
        assert occupancy["mean_requests_per_flush"] > 1.0

    def test_responses_in_request_order(self, engine):
        requests = [RankRequest(source=s, target=t, request_id=i)
                    for i, (s, t) in enumerate(ALL_PAIRS[:10])]
        responses = engine.rank_batch(requests)
        assert [r.request.request_id for r in responses] == \
            [r.request_id for r in requests]

    def test_error_requests_degrade_individually(self, engine):
        """An unreachable pair fails; its batch neighbours still serve."""
        requests = [RankRequest(source=0, target=5),
                    RankRequest(source=0, target=999),  # no such vertex
                    RankRequest(source=3, target=2)]
        responses = engine.rank_batch(requests)
        assert responses[0].served_by == "model"
        assert responses[1].served_by == "error"
        assert responses[2].served_by == "model"


class TestGroupCommit:
    """The engine flushes when the previous flush ends: what the workers
    prepare while a flush runs is the next flush, whole."""

    def test_requests_prepared_during_a_flush_form_the_next_one(
            self, tiny_network, registry, make_ranker, candidates_config,
            gate):
        registry.publish(make_ranker(tiny_network, seed=1), activate=True)
        service = RankingService(tiny_network, registry, ServingConfig(
            candidates=candidates_config, score_cache_size=0))
        requests = [RankRequest(source=s, target=t)
                    for s, t in ALL_PAIRS[1:7]]
        service.warm_up(requests)  # candidates cached, scores not kept
        gate.hold(service.scorer, "score_many")
        engine = ServingEngine(service, concurrency=2)
        try:
            first = engine.submit(RankRequest(*ALL_PAIRS[0]))
            gate.wait_for(1)  # the first flush is held in the scorer
            tickets = [engine.submit(request) for request in requests]
            give_up_at = time.perf_counter() + 5.0
            while len(engine._pending) < len(requests):
                assert time.perf_counter() < give_up_at, \
                    "the free worker never parked the requests"
                time.sleep(0.002)
            assert not any(ticket.done for ticket in tickets)
        finally:
            gate.release()
            engine.close()
        occupancy = engine.occupancy()
        assert occupancy["flushes"] == 2
        assert occupancy["requests_coalesced"] == 1 + len(requests)
        assert all(ticket.wait(timeout=0.0).served_by == "model"
                   for ticket in [first, *tickets])

    def test_each_request_is_flushed_once_under_stress(
            self, tiny_network, registry, make_ranker, candidates_config):
        """More workers than cores park and flush at a shortened switch
        interval: a ticket parked as a flush ends and lost would hang, a
        ticket taken by two flushes would be counted twice."""
        registry.publish(make_ranker(tiny_network, seed=1), activate=True)
        service = RankingService(tiny_network, registry, ServingConfig(
            candidates=candidates_config, score_cache_size=0))
        requests = [RankRequest(source=s, target=t, request_id=i)
                    for i, (s, t) in enumerate(ALL_PAIRS * 6)]
        service.warm_up(requests)  # every request is a quick rescore
        answers: dict[int, list] = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServingEngine(service, concurrency=6) as engine:
                def client(offset: int) -> None:
                    answers[offset] = engine.rank_batch(
                        requests[offset::4], timeout=10.0)

                clients = [threading.Thread(target=client, args=(offset,))
                           for offset in range(4)]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(timeout=30.0)
                    assert not thread.is_alive()
                occupancy = engine.occupancy()
        finally:
            sys.setswitchinterval(interval)
        responses = [r for offset in range(4) for r in answers[offset]]
        assert len(responses) == len(requests)
        assert all(r.served_by == "model" for r in responses)
        assert occupancy["requests_coalesced"] == len(requests)
        assert service.counters["requests"].value == len(requests)

    def test_max_batch_size_chunks_a_flush_but_never_cuts_it(
            self, tiny_network, registry, make_ranker, candidates_config,
            gate):
        """``max_batch_size`` sizes the forward passes inside a flush;
        it is not a trigger: the requests prepared during a held flush
        are one flush however many paths they carry."""
        registry.publish(make_ranker(tiny_network, seed=1), activate=True)
        service = RankingService(tiny_network, registry, ServingConfig(
            candidates=candidates_config, score_cache_size=0,
            max_batch_size=2))
        requests = [RankRequest(source=s, target=t)
                    for s, t in ALL_PAIRS[1:7]]
        service.warm_up(requests)  # candidates cached, scores not kept
        gate.hold(service.scorer, "score_many")
        engine = ServingEngine(service, concurrency=2)
        try:
            engine.submit(RankRequest(*ALL_PAIRS[0]))
            gate.wait_for(1)  # the first flush is held in the scorer
            tickets = [engine.submit(request) for request in requests]
            give_up_at = time.perf_counter() + 5.0
            while len(engine._pending) < len(requests):
                assert time.perf_counter() < give_up_at, \
                    "the free worker never parked the requests"
                time.sleep(0.002)
            before = service.scorer.as_dict()
        finally:
            gate.release()
            engine.close()
        responses = [ticket.wait(timeout=0.0) for ticket in tickets]
        assert engine.occupancy()["flushes"] == 2
        paths = sum(len(response.results) for response in responses)
        assert paths > 2
        after = service.scorer.as_dict()
        assert after["paths_scored"] - before["paths_scored"] >= paths
        assert after["batches_run"] - before["batches_run"] \
            >= -(-paths // 2)
        assert all(response.served_by == "model" for response in responses)


class TestOneAnswer:
    """Each ticket is answered once, by the thread that finishes it: it
    stamps ``completed``, then assembles with that instant, then wakes
    the waiter."""

    @pytest.mark.parametrize("path, served_by, by_submit", [
        ("hot", "model", True),
        ("refused", "error", True),
        ("shed", "error", True),
        ("unscorable", "fallback", False),
        ("scored", "model", False),
    ])
    def test_the_finishing_thread_assembles_once(
            self, tiny_network, registry, make_ranker, candidates_config,
            gate, monkeypatch, path, served_by, by_submit):
        # "unscorable": a published version that was never activated
        # leaves no model to score with.
        registry.publish(make_ranker(tiny_network, seed=1),
                         activate=path != "unscorable")
        service = RankingService(tiny_network, registry, ServingConfig(
            candidates=candidates_config, max_queue=1,
            shed_policy="reject"))
        request = RankRequest(source=3, target=2)
        if path == "hot":
            service.rank(request)  # memoise its scores
        elif path == "refused":
            request = RankRequest(source=99, target=5)
        calls: dict[int, list] = {}
        real_assemble = service.assemble

        def assemble(state, completed=None):
            calls.setdefault(id(state), []).append(
                (completed, threading.current_thread().name))
            return real_assemble(state, completed=completed)

        monkeypatch.setattr(service, "assemble", assemble)
        with ServingEngine(service, concurrency=1) as engine:
            if path == "shed":
                gate.hold(service, "prepare")
                try:
                    engine.submit(RankRequest(source=0, target=5))
                    gate.wait_for(1)  # the lone worker is held
                    engine.submit(RankRequest(source=1, target=4))
                    ticket = engine.submit(request)  # the inbox is full
                finally:
                    gate.release()
            else:
                ticket = engine.submit(request)
            assert ticket.done == by_submit
            response = ticket.wait(timeout=5.0)
        assert response is ticket.state.response
        assert ticket.wait(timeout=0.0) is response
        assert response.served_by == served_by
        [(completed, thread)] = calls[id(ticket.state)]
        assert completed is not None and completed == ticket.completed
        assert ticket.submitted <= ticket.completed
        assert (thread == threading.current_thread().name) == by_submit
        assert all(len(answers) == 1 for answers in calls.values())


class TestLifecycle:
    def test_close_refuses_new_requests(self, service):
        engine = ServingEngine(service, concurrency=2)
        engine.close()
        with pytest.raises(ServingError, match="closed"):
            engine.submit(RankRequest(source=0, target=5))

    def test_close_answers_in_flight_requests(self, service):
        engine = ServingEngine(batching(service, 10_000), concurrency=2)
        tickets = [engine.submit(RankRequest(source=s, target=t))
                   for s, t in ALL_PAIRS[:5]]
        engine.close()
        for ticket in tickets:
            assert ticket.wait(timeout=1.0).served_by == "model"

    def test_close_lists_no_worker_it_joined(self, service):
        """A bounded close() that joins every worker keeps none of them:
        only a worker its join gave up on stays in ``_workers``."""
        engine = ServingEngine(service, concurrency=3)
        assert len(engine._workers) == 3
        engine.close(timeout=10.0)
        assert engine._workers == []

    def test_close_drains_with_a_poisoned_flush(self, service):
        """close() drains flushes whose scoring raises: every ticket is
        answered, by the fallback."""
        poisoned = batching(service, 10_000)
        poisoned.scorer = _PoisonScorer()
        engine = ServingEngine(poisoned, concurrency=2)
        tickets = [engine.submit(RankRequest(source=s, target=t,
                                             request_id=i))
                   for i, (s, t) in enumerate(ALL_PAIRS[:4])]
        engine.close()
        responses = [ticket.wait(timeout=5.0) for ticket in tickets]
        assert [r.served_by for r in responses] == ["fallback"] * 4
        assert all("poisoned" in (r.error or "") for r in responses)

    def test_context_manager_and_ready(self, service):
        engine = ServingEngine(service, concurrency=2)
        assert engine.ready  # a constructed engine is a started engine
        with engine:
            assert engine.ready
            assert engine.rank(RankRequest(source=0, target=5)).ok
        assert not engine.ready

    def test_invalid_knobs_rejected(self, service):
        with pytest.raises(ServingError):
            ServingEngine(service, concurrency=0)

    def test_the_engine_takes_only_concurrency_and_warmup(self, service):
        keywords = [name for name, parameter in inspect.signature(
                        ServingEngine).parameters.items()
                    if parameter.kind is inspect.Parameter.KEYWORD_ONLY]
        assert keywords == ["concurrency", "warmup"]
        with pytest.raises(TypeError):
            ServingEngine(service, flush_deadline_ms=2.0)

    def test_the_engine_starts_no_thread_but_its_workers(self, service):
        before = set(threading.enumerate())
        with ServingEngine(service, concurrency=3) as engine:
            engine.rank(RankRequest(source=3, target=2), timeout=5.0)
            started = set(threading.enumerate()) - before
            assert sorted(thread.name for thread in started) \
                == [f"serving-worker-{number}" for number in range(3)]
        assert not any(thread.is_alive() for thread in started)

    def test_stats_report_the_config_batch_size(self, service):
        with ServingEngine(service, concurrency=2) as engine:
            stats = engine.stats()["engine"]
        assert "flush_deadline_ms" not in stats
        assert stats["max_batch_size"] == service.config.max_batch_size
        assert "adaptive_flush" not in stats


class TestRobustness:
    def test_hostile_request_gets_error_response_not_deadlock(self, service):
        """A request whose parameters blow up admission (k=0 fails config
        validation) must come back as an error response — and must not
        kill the worker that claimed it."""
        with ServingEngine(service, concurrency=2) as engine:
            bad = engine.rank(RankRequest(source=0, target=5, k=0),
                              timeout=5.0)
            good = engine.rank(RankRequest(source=0, target=5), timeout=5.0)
        assert bad.served_by == "error"
        assert "k must be" in bad.error
        assert good.served_by == "model"

    def test_latency_excludes_waiter_drain_delay(self, service):
        """A ticket collected long after scoring finished must report
        the pipeline's latency, not the collection delay."""
        with ServingEngine(service, concurrency=2) as engine:
            ticket = engine.submit(RankRequest(source=0, target=5))
            deadline = time.perf_counter() + 5.0
            while not ticket.done and time.perf_counter() < deadline:
                time.sleep(0.001)
            assert ticket.done
            time.sleep(0.3)  # the waiter dawdles
            response = ticket.wait(timeout=1.0)
        assert response.served_by == "model"
        assert response.latency_ms < 250.0


class TestWarmup:
    def test_warmup_fills_caches_before_ready(self, service):
        mix = [RankRequest(source=0, target=5), RankRequest(source=3, target=2),
               RankRequest(source=0, target=5)]  # duplicate: warmed once
        with ServingEngine(service, concurrency=2, warmup=mix) as engine:
            assert engine.warmed_up == 2
            # Warm-up must not count as served traffic...
            assert service.counters["requests"].value == 0
            # ...but the replayed queries now hit the candidate cache.
            response = engine.rank(RankRequest(source=0, target=5))
        assert response.candidate_cache_hit

    def test_warmup_stats_reported(self, service):
        with ServingEngine(service, concurrency=2,
                           warmup=[RankRequest(source=0, target=5)]) as engine:
            assert engine.stats()["engine"]["warmed_up"] == 1


class TestFailureIsolation:
    def test_scoring_error_mid_batch_degrades_only_poisoned_request(
            self, service, monkeypatch):
        """A path that breaks the forward pass must not take down the
        other requests coalesced into the same flush."""
        real_score_paths = PathRank.score_paths
        poison = RankRequest(source=0, target=5)
        poison_key = None

        # Identify the poison request's candidate paths up front.
        sync = RankingService(service.network, service.registry,
                              service.config)
        poison_state = sync.admit(poison)
        sync.prepare(poison_state)
        poison_key = {p.vertices for p in poison_state.paths}

        def explode_on_poison(self, paths, **kwargs):
            if any(p.vertices in poison_key for p in paths):
                raise ServingError("poisoned batch")
            return real_score_paths(self, paths, **kwargs)

        monkeypatch.setattr(PathRank, "score_paths", explode_on_poison)
        with ServingEngine(batching(service, 10_000), concurrency=4) as engine:
            requests = [poison,
                        RankRequest(source=3, target=2),
                        RankRequest(source=1, target=5)]
            responses = engine.rank_batch(requests)
        assert responses[0].served_by == "fallback"
        assert "poisoned batch" in responses[0].error
        assert responses[1].served_by == "model"
        assert responses[2].served_by == "model"


class TestCacheAnswers:
    """A request whose candidate-cache entry holds scores for the active
    version is answered in the caller's thread, through the same
    candidate and scoring stages, before ``submit`` returns."""

    def test_hot_request_is_answered_before_submit_returns(self, service,
                                                           gate):
        """The only worker hangs on a cold request; a hot one is still
        answered, in the caller's thread, without entering the inbox."""
        hot = RankRequest(source=0, target=5)
        expected = service.rank(hot)  # warm the entry and its scores
        with ServingEngine(service, concurrency=1) as engine:
            gate.hold(service_module, "generate_candidates")
            try:
                cold = engine.submit(RankRequest(source=3, target=2))
                gate.wait_for(1)
                ticket = engine.submit(hot)
                assert ticket.done
                assert engine.stats()["engine"]["queue_depth"] == 0
                assert engine.occupancy()["flushes"] == 0
                assert not cold.done
            finally:
                gate.release()  # let the worker through
            response = ticket.wait(timeout=0.0)
            assert cold.wait(timeout=5.0).served_by == "model"
        assert response.served_by == "model"
        assert response.candidate_cache_hit
        assert [(r.path.vertices, r.score) for r in response.results] == \
            [(r.path.vertices, r.score) for r in expected.results]

    def test_zero_score_cache_size_rescores_every_time(
            self, tiny_network, registry, make_ranker, candidates_config):
        registry.publish(make_ranker(tiny_network, seed=1), activate=True)
        service = RankingService(tiny_network, registry, ServingConfig(
            candidates=candidates_config, score_cache_size=0))
        request = RankRequest(source=0, target=5)
        with ServingEngine(service, concurrency=2) as engine:
            responses = [engine.rank(request, timeout=5.0)
                         for _ in range(3)]
            assert engine.occupancy()["flushes"] == 3
        paths = len(responses[0].results)
        assert service.scorer.as_dict()["paths_scored"] == 3 * paths
        assert all(r.served_by == "model" for r in responses)
        assert service.stats()["score_cache"] == {"disabled": True}

    def test_closed_engine_refuses_hot_requests_too(self, service):
        request = RankRequest(source=0, target=5)
        service.rank(request)
        engine = ServingEngine(service, concurrency=1)
        engine.close()
        with pytest.raises(ServingError):
            engine.submit(request)

    def test_hung_flush_spares_cache_answers(self, service, gate):
        """A request whose scores are memoised is model-served while a
        flush hangs in the scorer, outside any flush."""
        service.rank(RankRequest(source=0, target=5))  # warm both caches
        gate.hold(service.scorer, "score_many")
        engine = ServingEngine(service, concurrency=2)
        try:
            uncached = engine.submit(RankRequest(source=3, target=2))
            cached = engine.rank(RankRequest(source=0, target=5), timeout=5.0)
            assert cached.served_by == "model"
            gate.wait_for(1)
            assert not uncached.done
            assert engine.occupancy()["flushes"] == 0
            gate.release()
            assert uncached.wait(timeout=5.0).served_by == "model"
        finally:
            gate.release()
            engine.close()

    @pytest.mark.parametrize("candidate_cache_size", [8192, 4])
    def test_warm_cache_responses_equal_sync(self, tiny_network, registry,
                                             make_ranker, candidates_config,
                                             candidate_cache_size):
        """Element-wise parity with the sync facade, also with a
        candidate cache smaller than the working set, which evicts
        entries (and the scores on them) mid-run."""
        registry.publish(make_ranker(tiny_network, seed=1), activate=True)
        config = ServingConfig(candidates=candidates_config,
                               candidate_cache_size=candidate_cache_size)
        service = RankingService(tiny_network, registry, config)
        sync = RankingService(tiny_network, registry, config)
        # Each pair twice in a row: one at a time, the second finds its
        # paths cached even in the small cache.
        requests = [RankRequest(source=s, target=t, request_id=i)
                    for i, (s, t) in enumerate(
                        pair for pair in ALL_PAIRS for _ in range(2))]
        expected = [sync.rank(request) for request in requests]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave probes and evictions
        try:
            with ServingEngine(service, concurrency=4) as engine:
                concurrent = engine.rank_batch(requests, timeout=10.0)
                one_by_one = [engine.rank(request, timeout=5.0)
                              for request in requests]
        finally:
            sys.setswitchinterval(interval)
        for mine, theirs in zip(concurrent + one_by_one, expected * 2):
            assert mine.served_by == theirs.served_by == "model"
            assert mine.model_version == theirs.model_version
            assert [r.path.vertices for r in mine.results] == \
                [r.path.vertices for r in theirs.results]
            assert [r.score for r in mine.results] == \
                pytest.approx([r.score for r in theirs.results], abs=1e-6)
        stats = service.stats()
        assert stats["score_cache"]["hits"] > 0
        if candidate_cache_size < 8192:
            assert stats["candidate_cache"]["evictions"] > 0

    @pytest.mark.parametrize("change", ["dropped", "retagged"])
    def test_memos_changed_after_the_check_are_scored(self, service,
                                                      monkeypatch, change):
        """A memo dropped or re-tagged between the caller's check and
        the scoring attempt only costs a miss: the caller's thread runs
        the forward pass and answers right."""
        service = batching(service, 10_000)
        sync = RankingService(service.network, service.registry,
                              service.config)
        requests = [RankRequest(source=s, target=t) for s, t in ALL_PAIRS]
        expected = [sync.rank(request) for request in requests]
        service.warm_up(requests)
        prepare = RankingService.prepare

        def prepare_then_change(self, state):
            prepare(self, state)
            if change == "dropped":
                state.entry.scored = None
            else:
                state.entry.scored = ("stale", [0.0] * len(state.paths))
            return state

        monkeypatch.setattr(RankingService, "prepare", prepare_then_change)
        scored = service.scorer.as_dict()["paths_scored"]
        with ServingEngine(service, concurrency=2) as engine:
            actual = [engine.submit(request) for request in requests]
            assert all(ticket.done for ticket in actual)
            assert engine.occupancy()["flushes"] == 0
        actual = [ticket.wait(timeout=0.0) for ticket in actual]
        assert service.scorer.as_dict()["paths_scored"] - scored \
            == sum(len(response.results) for response in expected)
        for mine, theirs in zip(actual, expected):
            assert mine.served_by == theirs.served_by == "model"
            assert [r.path.vertices for r in mine.results] == \
                [r.path.vertices for r in theirs.results]
            assert [r.score for r in mine.results] == \
                pytest.approx([r.score for r in theirs.results], abs=1e-6)

    def test_activation_rescores_paths_cached_under_the_old_version(
            self, tiny_network, registry, make_ranker, service):
        request = RankRequest(source=0, target=5)
        old = service.rank(request)  # v0001's scores now cached
        new_version = registry.publish(make_ranker(tiny_network, seed=2),
                                       activate=True)
        with ServingEngine(service, concurrency=2) as engine:
            response = engine.rank(request, timeout=5.0)
            assert engine.occupancy()["flushes"] == 1
            # The rescore wrote the new version's scores back: the next
            # ask is answered in the caller's thread.
            assert engine.submit(request).done
            assert engine.occupancy()["flushes"] == 1
        reference = RankingService(tiny_network, registry,
                                   service.config).rank(request)
        assert response.model_version == new_version != old.model_version
        assert [r.score for r in response.results] == \
            pytest.approx([r.score for r in reference.results], abs=1e-6)
        assert [r.score for r in response.results] != \
            pytest.approx([r.score for r in old.results], abs=1e-6)

    @settings(max_examples=20, deadline=None, suppress_health_check=[
        HealthCheck.function_scoped_fixture])
    @given(stream=st.lists(st.sampled_from(range(len(STREAM_POOL))),
                           min_size=1, max_size=24),
           swap_at=st.integers(min_value=0, max_value=24))
    def test_responses_equal_rank_on_a_mixed_stream(
            self, tiny_network, tmp_path_factory, make_ranker,
            candidates_config, stream, swap_at):
        """Hot, cold and invalid requests, with a second version
        activated partway: each engine answer is ``service.rank``'s on
        an identical service, up to the latency."""
        registry = ModelRegistry(tmp_path_factory.mktemp("models"),
                                 tiny_network)
        registry.publish(make_ranker(tiny_network, seed=1), version="v1",
                         activate=True)
        registry.publish(make_ranker(tiny_network, seed=2), version="v2")
        config = ServingConfig(candidates=candidates_config)
        service = RankingService(tiny_network, registry, config)
        sync = RankingService(tiny_network, registry, config)
        with ServingEngine(service, concurrency=2) as engine:
            for position, index in enumerate(stream):
                if position == swap_at:
                    registry.activate("v2")
                request = STREAM_POOL[index]
                mine = engine.rank(request, timeout=5.0)
                theirs = sync.rank(request)
                assert replace(mine, latency_ms=0.0) \
                    == replace(theirs, latency_ms=0.0)



class TestAdmission:
    """``submit`` admits each request once, in the caller's thread."""

    def test_refused_requests_are_never_shed(self, tiny_network, registry,
                                             make_ranker, candidates_config,
                                             gate):
        registry.publish(make_ranker(tiny_network, seed=1), activate=True)
        service = RankingService(tiny_network, registry, ServingConfig(
            candidates=candidates_config, max_queue=1, trace_sample=1.0))
        invalid = [RankRequest(source=99, target=5),
                   RankRequest(source=0, target=5, k=0)]
        requests = [invalid[i % 2] if i % 3 == 0
                    else RankRequest(*ALL_PAIRS[i % len(ALL_PAIRS)])
                    for i in range(48)]
        with ServingEngine(service, concurrency=1) as engine:
            gate.hold(service, "prepare")
            try:
                tickets = [engine.submit(request) for request in requests]
            finally:
                gate.release()
            responses = [ticket.wait(timeout=10.0) for ticket in tickets]
        refused = [r for r in responses if r.request in invalid]
        assert len(refused) == 16
        assert all(r.error_code == "invalid_request" for r in refused)
        counters = service.res_counters
        assert counters["invalid_requests"].value == len(refused)
        shed = [r for r in responses if r.error_code == "shed"]
        assert shed, "a 32-deep flood against max_queue=1 never shed"
        assert counters["shed_rejected"].value == len(shed)
        # A shed request is the admitted state answered, trace and all.
        assert service.tracer.finished == len(responses)

    def test_candidate_cache_hits_count_where_the_entry_is_used(
            self, tiny_network, registry, make_ranker, candidates_config,
            gate):
        """Admission finds the cached candidates, but a request shed
        before the candidate stage never uses them and counts no hit:
        the hits equal the responses that report one."""
        registry.publish(make_ranker(tiny_network, seed=1), activate=True)
        service = RankingService(tiny_network, registry, ServingConfig(
            candidates=candidates_config, score_cache_size=0, max_queue=1,
            shed_policy="degrade"))
        request = RankRequest(source=0, target=5)
        service.rank(request)  # caches the candidates; no score memo
        before = service.stats()["candidate_cache"]["hits"]
        with ServingEngine(service, concurrency=1) as engine:
            gate.hold(service, "prepare")
            try:
                tickets = [engine.submit(request) for _ in range(6)]
            finally:
                gate.release()
            responses = [ticket.wait(timeout=5.0) for ticket in tickets]
        shed = [r for r in responses if r.error_code == "shed"]
        assert len(shed) >= 4
        hits = service.stats()["candidate_cache"]["hits"] - before
        assert hits == sum(r.candidate_cache_hit for r in responses)
        assert hits == len(responses) - len(shed)

    def test_one_enumeration_per_candidate_key_in_flight(
            self, service, monkeypatch):
        real = service_module.generate_candidates
        release = threading.Event()
        calls = []

        def blocked(*args, **kwargs):
            calls.append(args[1:3])
            release.wait(timeout=5.0)
            return real(*args, **kwargs)

        monkeypatch.setattr(service_module, "generate_candidates", blocked)
        request = RankRequest(source=1, target=5)
        with ServingEngine(service, concurrency=2) as engine:
            first = engine.submit(request)
            for _ in range(400):
                if calls:
                    break
                time.sleep(0.005)
            second = engine.submit(request)
            time.sleep(0.1)  # the second worker reaches the flight
            assert not second.done
            release.set()
            responses = [first.wait(5.0), second.wait(5.0)]
        assert calls == [(1, 5)]
        cache = service.stats()["candidate_cache"]
        assert (cache["misses"], cache["hits"]) == (1, 1)
        assert [r.candidate_cache_hit for r in responses] == [False, True]
        assert responses[0].results == responses[1].results

    def test_a_failed_leader_leaves_each_waiter_its_own_answer(
            self, service, monkeypatch):
        release = threading.Event()
        calls = []

        def no_path(*args, **kwargs):
            calls.append(1)
            release.wait(timeout=5.0)
            raise NoPathError(*args[1:3])

        monkeypatch.setattr(service_module, "generate_candidates", no_path)
        request = RankRequest(source=1, target=5)
        with ServingEngine(service, concurrency=2) as engine:
            first = engine.submit(request)
            for _ in range(400):
                if calls:
                    break
                time.sleep(0.005)
            second = engine.submit(request)
            time.sleep(0.1)
            release.set()
            responses = [first.wait(5.0), second.wait(5.0)]
        assert len(calls) == 2
        assert [r.served_by for r in responses] == ["error", "error"]
        assert [r.error for r in responses] == ["no path from 1 to 5"] * 2
        assert service.stats()["candidate_cache"]["misses"] == 2
