"""The resilience plane: deadlines, shedding, breakers, retries.

Unit tests drive :class:`CircuitBreaker` and :func:`retry_backoff`
directly (with a fake clock, so lifecycle transitions are exact);
integration tests push requests through a real :class:`RankingService`
and :class:`ServingEngine` with faults armed and assert the structured
degradation ``docs/robustness.md`` promises.
"""

import math
import threading
import time

import pytest

from repro.errors import DeadlineExceeded, ServingError
from repro.serving import (
    CircuitBreaker,
    RankingService,
    RankRequest,
    ResilienceConfig,
    ServingConfig,
    ServingEngine,
    retry_backoff,
)

from repro.ranking import Strategy, TrainingDataConfig

CANDIDATES = TrainingDataConfig(strategy=Strategy.TKDI, k=3)


class FakeClock:
    """Monotonic clock under test control (seconds)."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance_ms(self, ms: float) -> None:
        self.now += ms / 1000.0


def _breaker(clock, **overrides) -> CircuitBreaker:
    knobs = dict(breaker_window=4, breaker_min_samples=2,
                 breaker_failure_rate=0.5, breaker_cooldown_ms=100.0,
                 breaker_half_open_probes=2)
    knobs.update(overrides)
    return CircuitBreaker(ResilienceConfig(**knobs), clock=clock)


# ----------------------------------------------------------------------
# ResilienceConfig validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kwargs", [
    {"deadline_ms": 0.0},
    {"deadline_ms": -5.0},
    {"deadline_ms": math.inf},
    {"deadline_ms": math.nan},
    {"max_queue": -1},
    {"shed_policy": "panic"},
    {"retry_after_ms": -1.0},
    {"breaker_window": 0},
    {"breaker_min_samples": 0},
    {"breaker_min_samples": 9, "breaker_window": 8},
    {"breaker_failure_rate": 0.0},
    {"breaker_failure_rate": 1.5},
    {"breaker_latency_ms": 0.0},
    {"breaker_cooldown_ms": -1.0},
    {"breaker_half_open_probes": 0},
    {"retry_attempts": -1},
    {"retry_base_ms": -1.0},
    {"retry_jitter": 1.5},
])
def test_resilience_config_rejects_bad_knobs(kwargs):
    with pytest.raises(ValueError):
        ResilienceConfig(**kwargs)


def test_default_config_is_dormant_but_breaker_armed():
    config = ResilienceConfig()
    assert config.deadline_ms is None
    assert config.max_queue == 0
    assert config.active  # breakers default on (they are free until a failure)
    assert not ResilienceConfig(breaker_enabled=False,
                                retry_attempts=0).active


# ----------------------------------------------------------------------
# Circuit breaker lifecycle
# ----------------------------------------------------------------------
def test_breaker_trips_at_failure_rate():
    clock = FakeClock()
    breaker = _breaker(clock)
    assert breaker.state == "closed"
    breaker.record_failure()
    assert breaker.state == "closed"  # below min_samples
    breaker.record_failure()
    assert breaker.state == "open"
    assert breaker.trips == 1
    assert not breaker.allow()
    assert breaker.rejections == 1


def test_breaker_does_not_trip_below_rate():
    clock = FakeClock()
    breaker = _breaker(clock)
    for _ in range(3):
        breaker.record_success()
    breaker.record_failure()  # 1/4 < 0.5
    assert breaker.state == "closed"
    assert breaker.trips == 0


def test_breaker_half_opens_after_cooldown_and_recovers():
    clock = FakeClock()
    breaker = _breaker(clock)
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == "open"
    clock.advance_ms(99.0)
    assert breaker.state == "open"
    clock.advance_ms(2.0)
    assert breaker.state == "half_open"
    # Probe slots are claimed by allow(); extras are refused.
    assert breaker.allow()
    assert breaker.allow()
    assert not breaker.allow()
    breaker.record_success()
    assert breaker.state == "half_open"  # one of two probes landed
    breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.recoveries == 1
    # Recovery cleared the window: old failures cannot double-count.
    assert breaker.as_dict()["window_size"] == 0


def test_breaker_failed_probe_reopens():
    clock = FakeClock()
    breaker = _breaker(clock)
    breaker.record_failure()
    breaker.record_failure()
    clock.advance_ms(101.0)
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == "open"
    assert breaker.trips == 2
    assert breaker.recoveries == 0
    # The re-trip restarted the cooldown from the fake clock's now.
    clock.advance_ms(101.0)
    assert breaker.state == "half_open"


def test_breaker_ignores_stragglers_while_open():
    clock = FakeClock()
    breaker = _breaker(clock)
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_failure()  # straggler from a pre-trip flush
    snapshot = breaker.as_dict()
    assert snapshot["state"] == "open"
    assert snapshot["window_size"] == 0
    assert breaker.trips == 1


def test_breaker_latency_slo_counts_slow_success_as_failure():
    clock = FakeClock()
    breaker = _breaker(clock, breaker_latency_ms=10.0)
    breaker.record_success(latency_ms=50.0)
    breaker.record_success(latency_ms=50.0)
    assert breaker.state == "open"
    # Without the SLO the same latencies are plain successes.
    plain = _breaker(clock)
    plain.record_success(latency_ms=50.0)
    plain.record_success(latency_ms=50.0)
    assert plain.state == "closed"


# ----------------------------------------------------------------------
# Retry backoff
# ----------------------------------------------------------------------
def test_retry_backoff_is_deterministic_and_bounded():
    config = ResilienceConfig(retry_base_ms=4.0, retry_max_ms=10.0,
                              retry_jitter=0.5)
    first = retry_backoff(1, config, key=("lane", 3))
    assert first == retry_backoff(1, config, key=("lane", 3))
    assert first != retry_backoff(1, config, key=("lane", 4))
    # Jitter only shrinks the delay: [1 - jitter, 1] x base schedule.
    assert 0.002 <= first <= 0.004
    assert retry_backoff(5, config, key="x") <= 0.010  # capped at max_ms


def test_retry_backoff_doubles_without_jitter():
    config = ResilienceConfig(retry_base_ms=2.0, retry_max_ms=100.0,
                              retry_jitter=0.0)
    assert retry_backoff(1, config) == pytest.approx(0.002)
    assert retry_backoff(2, config) == pytest.approx(0.004)
    assert retry_backoff(3, config) == pytest.approx(0.008)
    with pytest.raises(ValueError):
        retry_backoff(0, config)


# ----------------------------------------------------------------------
# Admission validation (satellite b)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("request_", [
    RankRequest(source=99, target=5),
    RankRequest(source=0, target=-3),
    RankRequest(source="0", target=5),
    RankRequest(source=0, target=5, k=0),
    RankRequest(source=0, target=5, deadline_ms=0.0),
    RankRequest(source=0, target=5, deadline_ms=math.inf),
    RankRequest(source=0, target=5, deadline_ms=math.nan),
])
def test_malformed_requests_get_structured_errors(service, request_):
    response = service.rank(request_)
    assert response.served_by == "error"
    assert response.error_code == "invalid_request"
    assert response.results == ()
    assert service.res_counters["invalid_requests"].value >= 1


def test_valid_request_is_untouched_by_validation(service):
    response = service.rank(RankRequest(source=0, target=5, k=2))
    assert response.ok
    assert response.error_code is None


# ----------------------------------------------------------------------
# Deadlines through the pipeline
# ----------------------------------------------------------------------
def _deadline_service(tiny_network, registry, make_ranker, fault_spec,
                      **res_overrides) -> RankingService:
    registry.publish(make_ranker(tiny_network, seed=1), activate=True)
    knobs = dict(deadline_ms=20.0)
    knobs.update(res_overrides)
    service = RankingService(tiny_network, registry, ServingConfig(
        candidates=CANDIDATES, resilience=ResilienceConfig(**knobs)))
    if fault_spec is not None:
        service.arm_faults(fault_spec)
    return service


@pytest.mark.parametrize("stage_spec", [
    # Each stage boundary checks the budget the *previous* stage burnt:
    # an admit-stage stall expires at prepare, a prepare stall at
    # score_states, a score stall at assemble.
    "admit:delay=40", "prepare:delay=40", "score:delay=40"])
def test_deadline_expires_at_each_stage(tiny_network, registry, make_ranker,
                                        stage_spec):
    service = _deadline_service(tiny_network, registry, make_ranker,
                                stage_spec)
    response = service.rank(RankRequest(source=0, target=5))
    assert response.served_by == "error"
    assert response.error_code == "deadline_exceeded"
    assert response.retry_after_ms is not None
    assert service.res_counters["deadline_exceeded"].value == 1


def test_per_request_deadline_overrides_config(tiny_network, registry,
                                               make_ranker):
    service = _deadline_service(tiny_network, registry, make_ranker,
                                "score:delay=40", deadline_ms=120_000.0)
    relaxed = service.rank(RankRequest(source=0, target=5))
    assert relaxed.ok  # the config-level budget easily absorbs 40 ms
    tight = service.rank(RankRequest(source=0, target=5, deadline_ms=15.0))
    assert tight.error_code == "deadline_exceeded"


def test_no_deadline_means_no_expiry(tiny_network, registry, make_ranker):
    service = _deadline_service(tiny_network, registry, make_ranker,
                                "prepare:delay=30", deadline_ms=None)
    response = service.rank(RankRequest(source=0, target=5))
    assert response.ok
    assert service.res_counters["deadline_exceeded"].value == 0


# ----------------------------------------------------------------------
# Retries rescue transient scoring failures
# ----------------------------------------------------------------------
def test_single_shot_score_fault_is_retried_away(tiny_network, registry,
                                                 make_ranker):
    registry.publish(make_ranker(tiny_network, seed=1), activate=True)
    service = RankingService(tiny_network, registry, ServingConfig(
        candidates=CANDIDATES,
        resilience=ResilienceConfig(retry_attempts=2, retry_base_ms=1.0)))
    service.arm_faults("score:error:count=1")
    response = service.rank(RankRequest(source=0, target=5))
    assert response.served_by == "model"
    counters = service.stats()["resilience"]["counters"]
    assert counters["retries"] == 1
    assert counters["retry_successes"] == 1
    # The breaker saw the eventual success, not the transient failure.
    assert service.breaker.state == "closed"


def test_persistent_score_fault_falls_back_and_feeds_breaker(
        tiny_network, registry, make_ranker):
    registry.publish(make_ranker(tiny_network, seed=1), activate=True)
    service = RankingService(tiny_network, registry, ServingConfig(
        candidates=CANDIDATES,
        resilience=ResilienceConfig(
            retry_attempts=1, retry_base_ms=1.0,
            breaker_window=4, breaker_min_samples=2,
            breaker_cooldown_ms=60_000.0)))
    service.arm_faults("score:error")
    for _ in range(2):
        response = service.rank(RankRequest(source=0, target=5))
        # The group fails terminally, the per-member individual rescue
        # still answers, and the breaker records the group failure.
        assert response.ok
    breaker = service.breaker
    assert breaker.state == "open"
    assert breaker.trips == 1
    # Once open, requests degrade to the fallback without touching the
    # scorer (or the armed fault).
    degraded = service.rank(RankRequest(source=0, target=5))
    assert degraded.served_by == "fallback"
    assert degraded.error_code == "breaker_open"
    assert service.res_counters["breaker_degraded"].value >= 1
    stats = service.stats()["resilience"]
    assert stats["breaker"]["state"] == "open"


def test_breaker_recovers_through_half_open_probes(tiny_network, registry,
                                                   make_ranker):
    registry.publish(make_ranker(tiny_network, seed=1), activate=True)
    service = RankingService(tiny_network, registry, ServingConfig(
        candidates=CANDIDATES,
        resilience=ResilienceConfig(
            retry_attempts=0, breaker_window=4, breaker_min_samples=2,
            breaker_cooldown_ms=10.0, breaker_half_open_probes=1)))
    service.arm_faults("score:error")
    for _ in range(2):
        service.rank(RankRequest(source=0, target=5))
    assert service.breaker.state == "open"
    service.disarm_faults()
    time.sleep(0.02)  # past the cooldown: next group is the probe
    response = service.rank(RankRequest(source=0, target=5))
    assert response.served_by == "model"
    breaker = service.breaker
    assert breaker.state == "closed"
    assert breaker.recoveries == 1


@pytest.mark.parametrize("front_door", ["sync", "engine"])
def test_score_faults_degrade_cache_answers_like_flushes(
        tiny_network, registry, make_ranker, front_door):
    """The engine answers a fully cached request outside a flush, but
    through the same scoring stage: the ``score`` fault, retries, the
    individual rescue and the breaker treat it as the sync facade does."""
    registry.publish(make_ranker(tiny_network, seed=1), activate=True)
    service = RankingService(tiny_network, registry, ServingConfig(
        candidates=CANDIDATES,
        resilience=ResilienceConfig(
            retry_attempts=1, retry_base_ms=1.0,
            breaker_window=4, breaker_min_samples=2,
            breaker_cooldown_ms=60_000.0)))
    request = RankRequest(source=0, target=5)
    paths = len(service.rank(request).results)  # warm both caches
    service.arm_faults("score:error")
    with ServingEngine(service, concurrency=2,
                       flush_deadline_ms=1.0) as engine:
        def rank(request):
            if front_door == "engine":
                return engine.rank(request, timeout=5.0)
            return service.rank(request)

        # The warm-up's success and this failure trip the breaker.
        rescued = rank(request)
        degraded = rank(request)
        flushes = engine.occupancy()["flushes"]
    assert rescued.served_by == "model"
    assert degraded.served_by == "fallback"
    assert degraded.error_code == "breaker_open"
    assert service.breaker.trips == 1
    assert service.res_counters["retries"].value == 1
    assert service.res_counters["breaker_degraded"].value == 1
    assert service.stats()["resilience"]["faults"]["fired"] == 2
    # Hits are counted once, by the individual rescue's lookup.
    assert service.stats()["score_cache"]["hits"] == paths
    assert flushes == 0  # the engine answered both outside a flush


# ----------------------------------------------------------------------
# Engine: shedding, result(timeout), close()
# ----------------------------------------------------------------------
def _engine_service(tiny_network, registry, make_ranker,
                    **res_overrides) -> RankingService:
    registry.publish(make_ranker(tiny_network, seed=1), activate=True)
    return RankingService(tiny_network, registry, ServingConfig(
        candidates=CANDIDATES,
        resilience=ResilienceConfig(**res_overrides)))


def _flood(engine, service, stall_spec, count):
    """Arm a stall so the worker pool saturates, then flood submits."""
    service.arm_faults(stall_spec)
    requests = [RankRequest(source=0, target=5, request_id=i)
                for i in range(count)]
    return [engine.submit(request) for request in requests]


def test_overflowing_queue_sheds_with_reject(tiny_network, registry,
                                             make_ranker):
    service = _engine_service(tiny_network, registry, make_ranker,
                              max_queue=1, shed_policy="reject",
                              retry_after_ms=25.0)
    with ServingEngine(service, concurrency=1,
                       flush_deadline_ms=1.0) as engine:
        tickets = _flood(engine, service, "prepare:delay=50", 16)
        responses = [ticket.wait(timeout=10.0) for ticket in tickets]
        service.disarm_faults()
    shed = [r for r in responses if r.error_code == "shed"]
    assert shed, "a 16-deep flood against max_queue=1 never shed"
    assert all(r.served_by == "error" for r in shed)
    assert all(r.retry_after_ms == 25.0 for r in shed)
    assert service.res_counters["shed_rejected"].value == len(shed)
    answered = [r for r in responses if r.error_code != "shed"]
    assert all(r.ok for r in answered)


def test_overflowing_queue_degrades_to_fallback(tiny_network, registry,
                                                make_ranker):
    service = _engine_service(tiny_network, registry, make_ranker,
                              max_queue=1, shed_policy="degrade")
    with ServingEngine(service, concurrency=1,
                       flush_deadline_ms=1.0) as engine:
        tickets = _flood(engine, service, "prepare:delay=50", 16)
        responses = [ticket.wait(timeout=10.0) for ticket in tickets]
        service.disarm_faults()
    degraded = [r for r in responses if r.error_code == "shed"]
    assert degraded, "a 16-deep flood against max_queue=1 never shed"
    # Degrade answers with the shortest-path fallback, not an error.
    assert all(r.served_by == "fallback" for r in degraded)
    assert all(r.results for r in degraded)
    assert service.res_counters["shed_degraded"].value == len(degraded)


def test_unbounded_queue_never_sheds(tiny_network, registry, make_ranker):
    service = _engine_service(tiny_network, registry, make_ranker,
                              max_queue=0)
    with ServingEngine(service, concurrency=2,
                       flush_deadline_ms=1.0) as engine:
        responses = engine.rank_batch(
            [RankRequest(source=0, target=5, request_id=i)
             for i in range(32)])
    assert all(r.ok for r in responses)
    assert service.res_counters["shed_rejected"].value == 0
    assert service.res_counters["shed_degraded"].value == 0


def test_ticket_result_raises_structured_deadline(tiny_network, registry,
                                                  make_ranker):
    """Satellite (a): ``result()`` derives its wait from the request
    deadline and raises DeadlineExceeded instead of blocking forever."""
    service = _engine_service(tiny_network, registry, make_ranker,
                              retry_after_ms=33.0)
    engine = ServingEngine(service, concurrency=1, flush_deadline_ms=1.0)
    try:
        service.arm_faults("prepare:hang")
        ticket = engine.submit(RankRequest(source=0, target=5,
                                           deadline_ms=30.0))
        began = time.perf_counter()
        with pytest.raises(DeadlineExceeded) as excinfo:
            ticket.result()
        waited = time.perf_counter() - began
        assert excinfo.value.retry_after_ms == 33.0
        assert waited < 5.0  # budget + grace, nowhere near a hang
    finally:
        service.disarm_faults()  # release the hung worker
        engine.close()


@pytest.mark.parametrize("deadline_ms", [math.inf, math.nan])
def test_ticket_result_answers_a_non_finite_deadline(tiny_network, registry,
                                                     make_ranker,
                                                     deadline_ms):
    """A non-finite budget is refused at admission, so ``result()``
    collects the structured answer: it neither waits on an infinite
    timeout (which raises OverflowError) nor admits a deadline that
    never expires."""
    service = _engine_service(tiny_network, registry, make_ranker)
    with ServingEngine(service, concurrency=1,
                       flush_deadline_ms=1.0) as engine:
        response = engine.submit(RankRequest(
            source=0, target=5, deadline_ms=deadline_ms)).result()
    assert response.served_by == "error"
    assert response.error_code == "invalid_request"


def test_ticket_result_with_explicit_timeout(tiny_network, registry,
                                             make_ranker):
    service = _engine_service(tiny_network, registry, make_ranker)
    engine = ServingEngine(service, concurrency=1, flush_deadline_ms=1.0)
    try:
        service.arm_faults("prepare:hang")
        ticket = engine.submit(RankRequest(source=0, target=5))
        with pytest.raises(DeadlineExceeded):
            ticket.result(timeout=0.05)
    finally:
        service.disarm_faults()
        engine.close()


def test_close_fails_outstanding_tickets(tiny_network, registry, make_ranker):
    """Satellite (a): close() answers every in-flight ticket with a
    structured ``engine_closed`` error — no waiter blocks forever."""
    service = _engine_service(tiny_network, registry, make_ranker)
    engine = ServingEngine(service, concurrency=1, flush_deadline_ms=1.0)
    service.arm_faults("prepare:hang")
    tickets = [engine.submit(RankRequest(source=0, target=5, request_id=i))
               for i in range(4)]
    time.sleep(0.05)  # let the lone worker wedge on the hang

    closer = threading.Thread(target=engine.close, kwargs={"timeout": 0.2})
    closer.start()
    try:
        responses = [ticket.wait(timeout=10.0) for ticket in tickets]
    finally:
        service.disarm_faults()
        closer.join(timeout=10.0)
    failed = [r for r in responses if r.error_code == "engine_closed"]
    assert failed, "close() abandoned in-flight tickets"
    assert all(r.served_by == "error" for r in failed)
    with pytest.raises(ServingError):
        engine.submit(RankRequest(source=0, target=5))


# ----------------------------------------------------------------------
# Dormant parity (satellite c): armed-but-idle plane changes nothing
# ----------------------------------------------------------------------
def test_dormant_resilience_keeps_exact_parity(tiny_network, registry,
                                               make_ranker):
    registry.publish(make_ranker(tiny_network, seed=1), activate=True)
    plain = RankingService(tiny_network, registry,
                           ServingConfig(candidates=CANDIDATES))
    armed = RankingService(tiny_network, registry, ServingConfig(
        candidates=CANDIDATES,
        resilience=ResilienceConfig(deadline_ms=120_000.0, max_queue=4096,
                                    retry_attempts=2)))
    requests = [RankRequest(source=s, target=t)
                for s in range(6) for t in range(6) if s != t]
    baseline = plain.rank_batch(requests)
    for front_door in (armed.rank_batch,):
        for mine, theirs in zip(front_door(requests), baseline):
            assert mine.served_by == theirs.served_by
            assert mine.model_version == theirs.model_version
            assert [p.path.vertices for p in mine.results] \
                == [p.path.vertices for p in theirs.results]
            assert [p.score for p in mine.results] \
                == pytest.approx([p.score for p in theirs.results])
    counters = armed.stats()["resilience"]["counters"]
    assert all(v == 0 for v in counters.values())
    with ServingEngine(armed, concurrency=4,
                       flush_deadline_ms=2.0) as engine:
        concurrent = engine.rank_batch(requests)
    for mine, theirs in zip(concurrent, baseline):
        assert [p.path.vertices for p in mine.results] \
            == [p.path.vertices for p in theirs.results]
