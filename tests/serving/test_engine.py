"""ServingEngine: coalescing, parity, deadlines, warm-up, A/B routing."""

import math
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.core.model import PathRank
from repro.errors import ServingError
from repro.serving import (
    ModelRegistry,
    RankingService,
    RankRequest,
    ServingConfig,
    ServingEngine,
)
from repro.serving.cache import ScoreCache

ALL_PAIRS = [(s, t) for s in range(6) for t in range(6) if s != t]


def batching(service: RankingService, max_batch_size: int) -> RankingService:
    """A fresh service like ``service`` whose engine flushes by size at
    ``max_batch_size`` paths."""
    return RankingService(service.network, service.registry,
                          replace(service.config,
                                  max_batch_size=max_batch_size))


class _PoisonScorer:
    """Stands in for the service's BatchingScorer and always fails."""

    def score_many(self, model, candidate_lists, version=None):
        raise ServingError("scorer poisoned")

    def score_paths(self, model, paths, version=None):
        raise ServingError("scorer poisoned")


@pytest.fixture
def engine(service) -> ServingEngine:
    with ServingEngine(service, concurrency=4, flush_deadline_ms=5.0) as eng:
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
        with ServingEngine(batching(service, 512), concurrency=4,
                           flush_deadline_ms=20.0) as engine:
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


class TestDeadlineFlush:
    def test_deadline_flushes_partial_batch(self, service):
        """A lone request must be answered within ~the flush deadline,
        not wait for max_batch_size paths to accumulate."""
        with ServingEngine(batching(service, 10_000), concurrency=2,
                           flush_deadline_ms=10.0) as engine:
            started = time.perf_counter()
            response = engine.rank(RankRequest(source=0, target=5))
            elapsed_ms = (time.perf_counter() - started) * 1000.0
        assert response.served_by == "model"
        # Generous ceiling: deadline (10ms) + scheduling + scoring.
        assert elapsed_ms < 2000.0
        assert elapsed_ms >= 5.0, (
            "a lone sub-threshold request should have waited for the "
            f"flush deadline, answered in {elapsed_ms:.2f} ms"
        )

    def test_size_trigger_fires_before_deadline(self, service):
        """Enough pending paths flush immediately, not at the deadline."""
        with ServingEngine(batching(service, 2), concurrency=4,
                           flush_deadline_ms=10_000.0) as engine:
            requests = [RankRequest(source=s, target=t)
                        for s, t in ALL_PAIRS[:6]]
            started = time.perf_counter()
            responses = engine.rank_batch(requests)
            elapsed = time.perf_counter() - started
        assert all(r.served_by == "model" for r in responses)
        assert elapsed < 5.0  # nowhere near the 10s deadline

    def test_zero_deadline_serves_immediately(self, service):
        with ServingEngine(service, concurrency=2,
                           flush_deadline_ms=0.0) as engine:
            response = engine.rank(RankRequest(source=0, target=5))
        assert response.served_by == "model"


class TestLifecycle:
    def test_close_refuses_new_requests(self, service):
        engine = ServingEngine(service, concurrency=2)
        engine.close()
        with pytest.raises(ServingError, match="closed"):
            engine.submit(RankRequest(source=0, target=5))

    def test_close_answers_in_flight_requests(self, service):
        engine = ServingEngine(batching(service, 10_000), concurrency=2,
                               flush_deadline_ms=50.0)
        tickets = [engine.submit(RankRequest(source=s, target=t))
                   for s, t in ALL_PAIRS[:5]]
        engine.close()
        for ticket in tickets:
            assert ticket.wait(timeout=1.0).served_by == "model"

    def test_close_drains_with_a_poisoned_flush(self, service):
        """close() must flush the parked batch even when its scoring
        raises: every ticket is answered, by the fallback."""
        poisoned = batching(service, 10_000)
        poisoned.scorer = _PoisonScorer()
        engine = ServingEngine(poisoned, concurrency=2,
                               flush_deadline_ms=60_000.0)
        tickets = [engine.submit(RankRequest(source=s, target=t,
                                             request_id=i))
                   for i, (s, t) in enumerate(ALL_PAIRS[:4])]
        # Let the workers park the prepared states; with a one-minute
        # deadline and a huge size trigger nothing flushes until close.
        for _ in range(200):
            if all(ticket.state is not None for ticket in tickets):
                break
            time.sleep(0.005)
        engine.close()
        responses = [ticket.wait(timeout=5.0) for ticket in tickets]
        assert [r.served_by for r in responses] == ["fallback"] * 4
        assert all("poisoned" in (r.error or "") for r in responses)

    def test_unstarted_engine_rejects_submit(self, service):
        engine = ServingEngine(service, concurrency=2, start=False)
        with pytest.raises(ServingError, match="not started"):
            engine.submit(RankRequest(source=0, target=5))
        engine.start()
        assert engine.rank(RankRequest(source=0, target=5)).ok
        engine.close()

    def test_context_manager_and_ready(self, service):
        engine = ServingEngine(service, concurrency=2, start=False)
        assert not engine.ready
        with engine:
            assert engine.ready
            assert engine.rank(RankRequest(source=0, target=5)).ok
        assert not engine.ready

    def test_invalid_knobs_rejected(self, service):
        with pytest.raises(ServingError):
            ServingEngine(service, concurrency=0, start=False)
        with pytest.raises(ServingError):
            ServingEngine(service, flush_deadline_ms=-1.0, start=False)

    @pytest.mark.parametrize("deadline_ms", [
        math.inf, math.nan, -0.5, "auto", None,
        threading.TIMEOUT_MAX * 1000.0 * 2])
    def test_flush_deadline_the_flusher_cannot_sleep_on_is_rejected(
            self, service, deadline_ms):
        """Condition.wait raises on a timeout above TIMEOUT_MAX (inf
        included), which killed the flusher and stranded every parked
        request; such deadlines are refused up front."""
        with pytest.raises(ServingError, match="flush_deadline_ms"):
            ServingEngine(service, flush_deadline_ms=deadline_ms,
                          start=False)

    def test_longest_flush_deadline_still_answers_at_close(self, service):
        engine = ServingEngine(
            batching(service, 10_000), concurrency=2,
            flush_deadline_ms=threading.TIMEOUT_MAX * 1000.0)
        ticket = engine.submit(RankRequest(source=0, target=5))
        time.sleep(0.05)  # let the flusher sleep on the parked request
        engine.close(timeout=5.0)
        assert ticket.wait(timeout=1.0).served_by == "model"

    def test_stats_report_the_fixed_deadline_and_config_batch_size(
            self, service):
        with ServingEngine(service, concurrency=2,
                           flush_deadline_ms=2.0) as engine:
            stats = engine.stats()["engine"]
        assert stats["flush_deadline_ms"] == 2.0
        assert stats["max_batch_size"] == service.config.max_batch_size
        assert "adaptive_flush" not in stats


class TestRobustness:
    def test_hostile_request_gets_error_response_not_deadlock(self, service):
        """A request whose parameters blow up admission (k=0 fails config
        validation) must come back as an error response — and must not
        kill the worker that claimed it."""
        with ServingEngine(service, concurrency=2,
                           flush_deadline_ms=2.0) as engine:
            bad = engine.rank(RankRequest(source=0, target=5, k=0),
                              timeout=5.0)
            good = engine.rank(RankRequest(source=0, target=5), timeout=5.0)
        assert bad.served_by == "error"
        assert "k must be" in bad.error
        assert good.served_by == "model"

    def test_non_repro_scoring_error_degrades_not_hangs(self, service,
                                                        monkeypatch):
        """An unexpected exception type from the forward pass must not
        kill the scoring thread; requests degrade to the fallback."""
        def explode(self, paths, **kwargs):
            raise RuntimeError("BLAS exploded")

        monkeypatch.setattr(PathRank, "score_paths", explode)
        with ServingEngine(service, concurrency=2,
                           flush_deadline_ms=2.0) as engine:
            response = engine.rank(RankRequest(source=0, target=5),
                                   timeout=5.0)
        assert response.served_by == "fallback"
        assert "BLAS exploded" in response.error

    def test_latency_excludes_waiter_drain_delay(self, service):
        """A ticket collected long after scoring finished must report
        the pipeline's latency, not the collection delay."""
        with ServingEngine(service, concurrency=2,
                           flush_deadline_ms=0.0) as engine:
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
        with ServingEngine(batching(service, 10_000), concurrency=4,
                           flush_deadline_ms=50.0) as engine:
            requests = [poison,
                        RankRequest(source=3, target=2),
                        RankRequest(source=1, target=5)]
            responses = engine.rank_batch(requests)
        assert responses[0].served_by == "fallback"
        assert "poisoned batch" in responses[0].error
        assert responses[1].served_by == "model"
        assert responses[2].served_by == "model"


class TestCacheAnswers:
    """A request whose scores are all cached is answered by the worker
    that prepared it, through the same scoring stage, without a flush."""

    def test_cached_request_skips_the_flush_deadline(self, service):
        service = batching(service, 10_000)
        service.rank(RankRequest(source=0, target=5))  # warm both caches
        with ServingEngine(service, concurrency=2,
                           flush_deadline_ms=5000.0) as engine:
            started = time.perf_counter()
            cached = engine.rank(RankRequest(source=0, target=5),
                                 timeout=5.0)
            assert time.perf_counter() - started < 1.0
            uncached = engine.submit(RankRequest(source=3, target=2))
            time.sleep(0.3)
            assert not uncached.done  # parked for its flush
            assert engine.occupancy()["flushes"] == 0
        # close() flushed the parked request.
        assert uncached.wait(timeout=1.0).served_by == "model"
        assert cached.served_by == "model"

    @pytest.mark.parametrize("score_cache_size", [8192, 4])
    def test_warm_cache_responses_equal_sync(self, tiny_network, registry,
                                             make_ranker, candidates_config,
                                             score_cache_size):
        """Element-wise parity with the sync facade, also with a score
        cache smaller than the working set, which evicts mid-run."""
        registry.publish(make_ranker(tiny_network, seed=1), activate=True)
        config = ServingConfig(candidates=candidates_config,
                               score_cache_size=score_cache_size)
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
            with ServingEngine(service, concurrency=4,
                               flush_deadline_ms=5.0) as engine:
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
        cache = service.stats()["score_cache"]
        assert cache["hits"] > 0
        if score_cache_size < 8192:
            assert cache["evictions"] > 0

    def test_entries_evicted_after_the_probe_are_scored(self, service,
                                                        monkeypatch):
        """A probe that reports coverage the cache no longer has only
        costs a miss: the worker scores the paths and answers right."""
        service = batching(service, 10_000)
        sync = RankingService(service.network, service.registry,
                              service.config)
        requests = [RankRequest(source=s, target=t) for s, t in ALL_PAIRS]
        expected = [sync.rank(request) for request in requests]
        monkeypatch.setattr(ScoreCache, "covers",
                            lambda self, version, paths: True)
        with ServingEngine(service, concurrency=2,
                           flush_deadline_ms=5000.0) as engine:
            actual = engine.rank_batch(requests, timeout=5.0)
            assert engine.occupancy()["flushes"] == 0
        for mine, theirs in zip(actual, expected):
            assert mine.served_by == theirs.served_by == "model"
            assert [r.score for r in mine.results] == \
                pytest.approx([r.score for r in theirs.results], abs=1e-6)

    def test_activation_rescores_paths_cached_under_the_old_version(
            self, tiny_network, registry, make_ranker, service):
        request = RankRequest(source=0, target=5)
        old = service.rank(request)  # v0001's scores now cached
        new_version = registry.publish(make_ranker(tiny_network, seed=2),
                                       activate=True)
        with ServingEngine(service, concurrency=2,
                           flush_deadline_ms=5.0) as engine:
            response = engine.rank(request, timeout=5.0)
            assert engine.occupancy()["flushes"] == 1
        reference = RankingService(tiny_network, registry,
                                   service.config).rank(request)
        assert response.model_version == new_version != old.model_version
        assert [r.score for r in response.results] == \
            pytest.approx([r.score for r in reference.results], abs=1e-6)
        assert [r.score for r in response.results] != \
            pytest.approx([r.score for r in old.results], abs=1e-6)
