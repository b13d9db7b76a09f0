"""Telemetry reads under fire: stats()/export() hammered from reader
threads while the engine serves a workload.

Every count lives in one ``repro.obs`` instrument that ``stats()`` and
``export()`` both read, each instrument snapshots under its own lock,
and the registry's export is safe to call at any moment.  The service
bumps ``serving.requests`` before ``serving.latency`` observes and both
readers take the histogram first, so the latency count can never run
ahead of the request count.
"""

import json
import threading

import pytest

from repro.obs.export import prometheus_snapshot_lines
from repro.serving import (
    RankingService,
    RankRequest,
    ServingConfig,
    ServingEngine,
)

ALL_PAIRS = [(s, t) for s in range(6) for t in range(6) if s != t]


@pytest.fixture
def traced_engine(tiny_network, registry, make_ranker, candidates_config):
    registry.publish(make_ranker(tiny_network, seed=1), activate=True)
    service = RankingService(
        tiny_network, registry,
        ServingConfig(candidates=candidates_config, trace_sample=1.0))
    with ServingEngine(service, concurrency=4) as engine:
        yield engine


class TestStatsUnderConcurrency:
    def test_readers_never_crash_and_counters_stay_monotone(
            self, traced_engine):
        engine = traced_engine
        requests = [RankRequest(source=s, target=t, request_id=i)
                    for i, (s, t) in enumerate(ALL_PAIRS * 4)]
        stop = threading.Event()
        errors: list[BaseException] = []
        request_counts: list[list[int]] = []

        def hammer():
            seen: list[int] = []
            try:
                while not stop.is_set():
                    stats = engine.stats()
                    json.dumps(stats)
                    exported = engine.service.metrics.export()
                    json.dumps(exported)
                    prometheus_snapshot_lines(exported)
                    seen.append(exported["serving.requests"])
                    # Holds by construction: requests is bumped before
                    # latency observes, and stats()/export() read the
                    # histogram before the counter.
                    assert stats["latency"]["count"] \
                        <= stats["counters"]["requests"]
                    assert exported["serving.latency.count"] \
                        <= exported["serving.requests"]
                    assert stats["latency"]["mean_ms"] >= 0.0
                    assert engine.occupancy()["flushes"] >= 0
            except BaseException as exc:  # noqa: BLE001 - recorded for assert
                errors.append(exc)
            finally:
                request_counts.append(seen)

        readers = [threading.Thread(target=hammer) for _ in range(4)]
        for reader in readers:
            reader.start()
        try:
            responses = engine.rank_batch(requests)
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=30.0)

        assert not errors, f"reader thread failed: {errors[0]!r}"
        assert all(response.ok for response in responses)
        # Each reader's view of the request counter must be monotone —
        # a counter that ever runs backwards means a torn snapshot.
        assert len(request_counts) == 4
        for seen in request_counts:
            assert seen, "reader never completed a single stats pass"
            assert all(b >= a for a, b in zip(seen, seen[1:]))
        final = engine.service.metrics.export()
        assert final["serving.requests"] == len(requests)
        assert engine.service.tracer.finished == len(requests)

    def test_export_consistent_after_the_dust_settles(self, traced_engine):
        engine = traced_engine
        requests = [RankRequest(source=s, target=t, request_id=i)
                    for i, (s, t) in enumerate(ALL_PAIRS)]
        engine.rank_batch(requests)
        stats = engine.stats()
        exported = engine.service.metrics.export()
        assert stats["counters"]["requests"] == len(requests)
        assert exported["serving.requests"] == len(requests)
        assert exported["serving.latency.count"] == len(requests)
        assert stats["latency"]["count"] == len(requests)
