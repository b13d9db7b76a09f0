"""The adaptive flush policy: deadline math and engine integration."""

import time

import pytest

from repro.errors import ServingError
from repro.ranking import Strategy, TrainingDataConfig
from repro.serving import (
    ModelRegistry,
    RankingService,
    ServingConfig,
    ServingEngine,
)
from repro.serving.engine import AdaptiveFlushPolicy

CANDIDATES = TrainingDataConfig(strategy=Strategy.TKDI, k=3)


# ----------------------------------------------------------------------
# Policy math
# ----------------------------------------------------------------------
def test_no_signal_rests_at_the_historical_default():
    policy = AdaptiveFlushPolicy(max_batch_size=64)
    assert policy.current_deadline_ms() == AdaptiveFlushPolicy.DEFAULT_MS
    view = policy.as_dict()
    assert view["flushes_measured"] == 0
    assert view["arrival_rate_hz"] == 0.0


def test_batch_cost_bounds_the_deadline():
    # 1 ms per path, 4-path batches: waiting longer than the ~4 ms a
    # full batch costs to score only adds latency.
    policy = AdaptiveFlushPolicy(max_batch_size=4)
    policy.note_flush(requests=2, paths=100, wall_s=0.1)
    assert policy.current_deadline_ms() == pytest.approx(4.0)
    assert policy.as_dict()["cost_per_path_ms"] == pytest.approx(1.0)


def test_deadline_is_clamped_to_the_configured_band():
    slow = AdaptiveFlushPolicy(max_batch_size=64)
    slow.note_flush(requests=1, paths=10, wall_s=10.0)  # 1 s per path
    assert slow.current_deadline_ms() == AdaptiveFlushPolicy.MAX_MS

    fast = AdaptiveFlushPolicy(max_batch_size=1)
    fast.note_flush(requests=1, paths=10 ** 6, wall_s=1e-6)
    assert fast.current_deadline_ms() == AdaptiveFlushPolicy.MIN_MS


def test_arrival_rate_bounds_the_deadline():
    # A burst arriving faster than the batch fills: t_fill, not the
    # (expensive) batch cost, should set the deadline.
    policy = AdaptiveFlushPolicy(max_batch_size=8)
    policy.note_flush(requests=10, paths=40, wall_s=4.0)  # 100 ms/path
    now = time.perf_counter()
    # ~1000 requests/s at 4 paths each -> 8-path batch fills in ~2 ms.
    with policy._lock:
        policy._arrivals.extend(now + i / 1000.0 for i in range(64))
    deadline = policy.current_deadline_ms()
    assert deadline == pytest.approx(2.0, rel=0.05)
    assert policy.as_dict()["arrival_rate_hz"] == pytest.approx(1000.0,
                                                                rel=0.05)


def test_cost_ewma_tracks_recent_flushes():
    policy = AdaptiveFlushPolicy(max_batch_size=10)
    policy.note_flush(requests=1, paths=100, wall_s=0.1)  # 1 ms/path
    first = policy.as_dict()["cost_per_path_ms"]
    policy.note_flush(requests=1, paths=100, wall_s=0.3)  # 3 ms/path
    second = policy.as_dict()["cost_per_path_ms"]
    assert first < second < 3.0
    policy.note_flush(requests=0, paths=0, wall_s=0.0)  # ignored
    assert policy.as_dict()["flushes_measured"] == 2


def test_cost_probe_bootstraps_before_the_first_flush():
    policy = AdaptiveFlushPolicy(
        max_batch_size=4,
        cost_probe=lambda: {"wall_s": 0.2, "paths_scored": 100})
    # 2 ms/path from the kernel profile -> 8 ms batch cost.
    assert policy.current_deadline_ms() == pytest.approx(8.0)


def test_broken_cost_probe_is_ignored():
    def probe():
        raise RuntimeError("kernel view unavailable")

    policy = AdaptiveFlushPolicy(max_batch_size=4, cost_probe=probe)
    assert policy.current_deadline_ms() == AdaptiveFlushPolicy.DEFAULT_MS


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
@pytest.fixture
def service(exec_network, exec_ranker, tmp_path):
    registry = ModelRegistry(tmp_path / "models", exec_network)
    registry.publish(exec_ranker, activate=True)
    return RankingService(exec_network, registry,
                          ServingConfig(candidates=CANDIDATES))


def test_engine_rejects_non_auto_strings(service):
    with pytest.raises(ServingError, match="auto"):
        ServingEngine(service, flush_deadline_ms="nope")


def test_engine_auto_mode_measures_and_reports(service, exec_network,
                                               od_requests):
    workload = od_requests(exec_network, num_requests=16, num_pairs=4,
                           seed=5)
    with ServingEngine(service, concurrency=4,
                       flush_deadline_ms="auto") as engine:
        responses = engine.rank_batch(workload)
        assert all(response.ok for response in responses)
        stats = engine.stats()["engine"]
    adaptive = stats["adaptive_flush"]
    assert stats["flush_deadline_ms"] == adaptive["current_ms"]
    assert adaptive["flushes_measured"] >= 1
    assert adaptive["paths_per_request"] > 0.0
    assert adaptive["cost_per_path_ms"] > 0.0
    assert AdaptiveFlushPolicy.MIN_MS <= adaptive["current_ms"] \
        <= AdaptiveFlushPolicy.MAX_MS


def test_engine_fixed_deadline_keeps_adaptive_dormant(service):
    with ServingEngine(service, concurrency=2,
                       flush_deadline_ms=2.0) as engine:
        assert engine.adaptive is None
        stats = engine.stats()["engine"]
        assert "adaptive_flush" not in stats
        assert stats["flush_deadline_ms"] == 2.0
