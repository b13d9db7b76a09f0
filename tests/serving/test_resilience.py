"""The resilience plane: deadlines, shedding, breakers, per-request rescue.

Unit tests drive :class:`CircuitBreaker` directly (with a fake clock,
so lifecycle transitions are exact);
integration tests push requests through a real :class:`RankingService`
and :class:`ServingEngine` with a seam patched to raise, sleep or hold,
and assert the structured degradation ``docs/robustness.md`` promises.
"""

import math
import threading
import time

import pytest

from repro.errors import ServingError
from repro.core.model import PathRank
from repro.serving import (
    CircuitBreaker,
    RankingService,
    RankRequest,
    ServingConfig,
    ServingEngine,
)
from repro.serving import service as service_module
from repro.serving.resilience import (
    BREAKER_COOLDOWN_MS,
    BREAKER_HALF_OPEN_PROBES,
    BREAKER_MIN_SAMPLES,
    RETRY_AFTER_MS,
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


def _trip(breaker: CircuitBreaker) -> None:
    """Record failures until the breaker opens."""
    for _ in range(BREAKER_MIN_SAMPLES):
        breaker.record_failure()
    assert breaker.state == "open"


def _slow(monkeypatch, owner, name: str, seconds: float) -> None:
    """Make every call of ``owner.name`` take ``seconds`` longer."""
    real = getattr(owner, name)

    def slow(*args, **kwargs):
        time.sleep(seconds)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, slow)


def _failing(monkeypatch, owner, name: str, times: int | None = None):
    """Make ``owner.name`` raise ``ServingError`` (the first ``times``
    calls only, when given); returns the list of calls it failed."""
    real = getattr(owner, name)
    failed: list = []

    def fail(*args, **kwargs):
        if times is None or len(failed) < times:
            failed.append(args)
            raise ServingError(f"{name} exploded")
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, fail)
    return failed


def _with_fake_clock(service: RankingService) -> FakeClock:
    """Give ``service`` a fresh breaker on a fake clock."""
    clock = FakeClock()
    service.breaker = CircuitBreaker(clock=clock)
    return clock


# ----------------------------------------------------------------------
# Validation of the resilience settings on ServingConfig
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kwargs", [
    {"deadline_ms": 0.0},
    {"deadline_ms": -5.0},
    {"deadline_ms": math.inf},
    {"deadline_ms": math.nan},
    {"max_queue": -1},
    {"shed_policy": "panic"},
])
def test_resilience_config_rejects_bad_knobs(kwargs):
    with pytest.raises(ValueError):
        ServingConfig(**kwargs)


def test_default_config_is_dormant_but_breaker_armed(service):
    config = ServingConfig()
    assert config.deadline_ms is None
    assert config.max_queue == 0
    # The breaker is always on (it is free until a failure).
    assert service.breaker.state == "closed"


# ----------------------------------------------------------------------
# Circuit breaker lifecycle
# ----------------------------------------------------------------------
def test_breaker_trips_at_failure_rate():
    breaker = CircuitBreaker(clock=FakeClock())
    assert breaker.state == "closed"
    for _ in range(BREAKER_MIN_SAMPLES - 1):
        breaker.record_failure()
    assert breaker.state == "closed"  # below min_samples
    breaker.record_failure()
    assert breaker.state == "open"
    assert breaker.trips == 1
    assert not breaker.allow()
    assert breaker.rejections == 1


def test_breaker_does_not_trip_below_rate():
    breaker = CircuitBreaker(clock=FakeClock())
    for _ in range(5):
        breaker.record_success()
    for _ in range(4):
        breaker.record_failure()  # 4/9 < 0.5
    assert breaker.state == "closed"
    assert breaker.trips == 0


def test_breaker_half_opens_after_cooldown_and_recovers():
    clock = FakeClock()
    breaker = CircuitBreaker(clock=clock)
    _trip(breaker)
    clock.advance_ms(BREAKER_COOLDOWN_MS - 1.0)
    assert breaker.state == "open"
    clock.advance_ms(2.0)
    assert breaker.state == "half_open"
    # Probe slots are claimed by allow(); extras are refused.
    assert BREAKER_HALF_OPEN_PROBES == 2
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
    breaker = CircuitBreaker(clock=clock)
    _trip(breaker)
    clock.advance_ms(BREAKER_COOLDOWN_MS + 1.0)
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == "open"
    assert breaker.trips == 2
    assert breaker.recoveries == 0
    # The re-trip restarted the cooldown from the fake clock's now.
    clock.advance_ms(BREAKER_COOLDOWN_MS + 1.0)
    assert breaker.state == "half_open"


def test_breaker_ignores_stragglers_while_open():
    breaker = CircuitBreaker(clock=FakeClock())
    _trip(breaker)
    breaker.record_failure()  # straggler from a pre-trip flush
    snapshot = breaker.as_dict()
    assert snapshot["state"] == "open"
    assert snapshot["window_size"] == 0
    assert breaker.trips == 1


# ----------------------------------------------------------------------
# Admission validation
# ----------------------------------------------------------------------
#: Requests that admission must refuse with ``invalid_request``.  ``bool``
#: is an ``int`` to Python: ``k=2.5`` and ``k=nan`` used to pass the
#: ``k < 1`` check and rank every examined candidate, ``True`` was served
#: as vertex 1, ``k=1`` or a 1 ms budget.
BOOL_AND_NON_INTEGER_REQUESTS = [
    RankRequest(source=0, target=5, k=2.5),
    RankRequest(source=0, target=5, k=math.nan),
    RankRequest(source=0, target=5, k=True),
    RankRequest(source=True, target=5),
    RankRequest(source=0, target=True),
    RankRequest(source=0, target=5, deadline_ms=True),
    RankRequest(source=0, target=5, k="3"),
    RankRequest(source=0, target=5, deadline_ms="50"),
]


@pytest.mark.parametrize("request_", [
    RankRequest(source=99, target=5),
    RankRequest(source=0, target=-3),
    RankRequest(source="0", target=5),
    RankRequest(source=0, target=5, k=0),
    RankRequest(source=0, target=5, deadline_ms=0.0),
    RankRequest(source=0, target=5, deadline_ms=math.inf),
    RankRequest(source=0, target=5, deadline_ms=math.nan),
    *BOOL_AND_NON_INTEGER_REQUESTS,
])
def test_malformed_requests_get_structured_errors(service, request_):
    response = service.rank(request_)
    assert response.served_by == "error"
    assert response.error_code == "invalid_request"
    assert response.results == ()
    assert service.res_counters["invalid_requests"].value == 1


def test_valid_request_is_untouched_by_validation(service):
    response = service.rank(RankRequest(source=0, target=5, k=2))
    assert response.ok
    assert response.error_code is None


# ----------------------------------------------------------------------
# Deadlines through the pipeline
# ----------------------------------------------------------------------
def _deadline_service(tiny_network, registry, make_ranker,
                      **res_overrides) -> RankingService:
    registry.publish(make_ranker(tiny_network, seed=1), activate=True)
    knobs = dict(deadline_ms=20.0)
    knobs.update(res_overrides)
    return RankingService(tiny_network, registry, ServingConfig(
        candidates=CANDIDATES, **knobs))


#: Where a 40 ms stall lands in each stage: the registry snapshot
#: (admission), candidate generation, the forward pass (scoring).
STAGE_SEAMS = {"admit": lambda service: (service.registry, "snapshot"),
               "prepare": lambda service: (service_module,
                                           "generate_candidates"),
               "score": lambda service: (PathRank, "score_paths")}


@pytest.mark.parametrize("stage", list(STAGE_SEAMS))
def test_deadline_expires_at_each_stage(tiny_network, registry, make_ranker,
                                        monkeypatch, stage):
    # Each stage boundary checks the budget the *previous* stage burnt:
    # an admit-stage stall expires at prepare, a prepare stall at
    # score_states, a score stall at assemble.
    service = _deadline_service(tiny_network, registry, make_ranker)
    _slow(monkeypatch, *STAGE_SEAMS[stage](service), 0.04)
    response = service.rank(RankRequest(source=0, target=5))
    assert response.served_by == "error"
    assert response.error_code == "deadline_exceeded"
    assert response.retry_after_ms is not None
    assert service.res_counters["deadline_exceeded"].value == 1


def test_per_request_deadline_overrides_config(tiny_network, registry,
                                               make_ranker, monkeypatch):
    # No score memo: the repeat pays the slow forward pass too.
    service = _deadline_service(tiny_network, registry, make_ranker,
                                deadline_ms=120_000.0, score_cache_size=0)
    _slow(monkeypatch, PathRank, "score_paths", 0.04)
    relaxed = service.rank(RankRequest(source=0, target=5))
    assert relaxed.ok  # the config-level budget easily absorbs 40 ms
    tight = service.rank(RankRequest(source=0, target=5, deadline_ms=15.0))
    assert tight.error_code == "deadline_exceeded"


def test_no_deadline_means_no_expiry(tiny_network, registry, make_ranker,
                                    monkeypatch):
    service = _deadline_service(tiny_network, registry, make_ranker,
                                deadline_ms=None)
    _slow(monkeypatch, service_module, "generate_candidates", 0.03)
    response = service.rank(RankRequest(source=0, target=5))
    assert response.ok
    assert service.res_counters["deadline_exceeded"].value == 0


# ----------------------------------------------------------------------
# A failed group's members are scored again one by one
# ----------------------------------------------------------------------
def _scoring_service(tiny_network, registry, make_ranker):
    """A model-served service whose breaker runs on a fake clock."""
    registry.publish(make_ranker(tiny_network, seed=1), activate=True)
    service = RankingService(tiny_network, registry,
                             ServingConfig(candidates=CANDIDATES))
    return service, _with_fake_clock(service)


def test_single_shot_score_fault_is_still_model_served(
        tiny_network, registry, make_ranker, monkeypatch):
    """The group's forward pass fails once; the per-request rescue runs
    it again and serves the model's answer, and the breaker records the
    group's one failure."""
    service, _ = _scoring_service(tiny_network, registry, make_ranker)
    failed = _failing(monkeypatch, PathRank, "score_paths", times=1)
    response = service.rank(RankRequest(source=0, target=5))
    assert response.served_by == "model"
    assert response.error is None
    assert len(failed) == 1
    breaker = service.breaker.as_dict()
    assert (breaker["state"], breaker["window_failures"]) == ("closed", 1)


def test_a_failed_group_is_one_breaker_failure_and_every_member_is_rescued(
        tiny_network, registry, make_ranker, monkeypatch):
    """A four-request group whose coalesced pass fails once: each member
    is scored again on its own and model-served, and the breaker records
    one failure for the group, not one per member."""
    service, _ = _scoring_service(tiny_network, registry, make_ranker)
    failed = _failing(monkeypatch, service.scorer, "score_many", times=1)
    states = [service.prepare(service.admit(
                  RankRequest(source=s, target=5, request_id=s)))
              for s in range(4)]
    service.score_states(states)
    responses = [service.assemble(state) for state in states]
    assert [response.served_by for response in responses] \
        == ["model"] * 4
    assert len(failed) == 1
    breaker = service.breaker.as_dict()
    assert (breaker["state"], breaker["window_failures"]) == ("closed", 1)


def test_persistent_score_fault_falls_back_and_feeds_breaker(
        tiny_network, registry, make_ranker, monkeypatch):
    service, _ = _scoring_service(tiny_network, registry, make_ranker)
    _failing(monkeypatch, PathRank, "score_paths")
    for _ in range(BREAKER_MIN_SAMPLES):
        response = service.rank(RankRequest(source=0, target=5))
        # The group fails terminally, the per-member individual rescue
        # fails too and serves the fallback, and the breaker records
        # the group failure.
        assert response.ok
    breaker = service.breaker
    assert breaker.state == "open"
    assert breaker.trips == 1
    # Once open, requests degrade to the fallback without touching the
    # scorer.
    degraded = service.rank(RankRequest(source=0, target=5))
    assert degraded.served_by == "fallback"
    assert degraded.error_code == "breaker_open"
    assert service.res_counters["breaker_degraded"].value >= 1
    stats = service.stats()["resilience"]
    assert stats["breaker"]["state"] == "open"


def test_breaker_recovers_through_half_open_probes(tiny_network, registry,
                                                   make_ranker, monkeypatch):
    service, clock = _scoring_service(tiny_network, registry, make_ranker)
    with monkeypatch.context() as patch:
        _failing(patch, PathRank, "score_paths")
        for _ in range(BREAKER_MIN_SAMPLES):
            service.rank(RankRequest(source=0, target=5))
    assert service.breaker.state == "open"
    clock.advance_ms(BREAKER_COOLDOWN_MS)  # the next groups are probes
    for _ in range(BREAKER_HALF_OPEN_PROBES):
        assert service.breaker.state == "half_open"
        response = service.rank(RankRequest(source=0, target=5))
        assert response.served_by == "model"
    breaker = service.breaker
    assert breaker.state == "closed"
    assert breaker.recoveries == 1


def test_a_failure_of_any_type_releases_its_half_open_probe(
        tiny_network, registry, make_ranker, monkeypatch):
    """Only a ``ReproError`` or a success used to record a group's
    outcome.  A half-open probe whose forward pass raised
    ``RuntimeError`` kept its slot claimed; two such probes wedged the
    breaker half-open, and it refused every later group for good."""
    service, clock = _scoring_service(tiny_network, registry, make_ranker)
    with monkeypatch.context() as patch:
        _failing(patch, PathRank, "score_paths")
        for _ in range(BREAKER_MIN_SAMPLES):
            service.rank(RankRequest(source=0, target=5))
    clock.advance_ms(BREAKER_COOLDOWN_MS)
    assert service.breaker.state == "half_open"

    def explode(self, paths, **kwargs):
        raise RuntimeError("BLAS exploded")

    with monkeypatch.context() as patch:
        patch.setattr(PathRank, "score_paths", explode)
        probe = service.rank(RankRequest(source=3, target=2))
        assert (probe.served_by, probe.error) \
            == ("fallback", "BLAS exploded")
        # The failed probe re-opened the breaker and restarted the
        # cooldown.
        assert (service.breaker.state, service.breaker.trips) == ("open", 2)
        refused = service.rank(RankRequest(source=3, target=2))
        assert refused.error_code == "breaker_open"
    clock.advance_ms(BREAKER_COOLDOWN_MS)
    healthy = service.rank(RankRequest(source=3, target=2))
    assert healthy.served_by == "model"


@pytest.mark.parametrize("front_door", ["sync", "engine"])
def test_score_faults_degrade_cache_answers_like_flushes(
        tiny_network, registry, make_ranker, monkeypatch, front_door):
    """The engine answers a fully cached request outside a flush, but
    through the same scoring stage: a failed scoring attempt, the
    individual rescue and the breaker treat it as the sync facade
    does."""
    service, _ = _scoring_service(tiny_network, registry, make_ranker)
    request = RankRequest(source=0, target=5)
    paths = len(service.rank(request).results)  # warm both caches
    # One failure short of tripping: the warm-up's success and
    # BREAKER_MIN_SAMPLES - 2 failures fill the window to one below its
    # minimum.
    for _ in range(BREAKER_MIN_SAMPLES - 2):
        service.breaker.record_failure()
    # The group's attempt fails; the rescue reads the memo.
    failed = _failing(monkeypatch, service, "_scores", times=1)
    with ServingEngine(service, concurrency=2) as engine:
        def rank(request):
            if front_door == "engine":
                return engine.rank(request, timeout=5.0)
            return service.rank(request)

        # This failure trips the breaker.
        rescued = rank(request)
        degraded = rank(request)
        flushes = engine.occupancy()["flushes"]
    assert rescued.served_by == "model"
    assert degraded.served_by == "fallback"
    assert degraded.error_code == "breaker_open"
    assert service.breaker.trips == 1
    assert service.res_counters["breaker_degraded"].value == 1
    assert len(failed) == 1
    # Hits are counted once, by the individual rescue's lookup.
    assert service.stats()["score_cache"]["hits"] == paths
    assert flushes == 0  # the engine answered both outside a flush


# ----------------------------------------------------------------------
# Engine: shedding, close()
# ----------------------------------------------------------------------
def _engine_service(tiny_network, registry, make_ranker,
                    **res_overrides) -> RankingService:
    registry.publish(make_ranker(tiny_network, seed=1), activate=True)
    return RankingService(tiny_network, registry, ServingConfig(
        candidates=CANDIDATES, **res_overrides))


def _flood(engine, service, gate, count):
    """Hold the candidate stage so the workers saturate, flood submits,
    then let the held work through."""
    gate.hold(service, "prepare")
    requests = [RankRequest(source=0, target=5, request_id=i)
                for i in range(count)]
    try:
        return [engine.submit(request) for request in requests]
    finally:
        gate.release()


def test_overflowing_queue_sheds_with_reject(tiny_network, registry,
                                             make_ranker, gate):
    service = _engine_service(tiny_network, registry, make_ranker,
                              max_queue=1, shed_policy="reject")
    with ServingEngine(service, concurrency=1) as engine:
        tickets = _flood(engine, service, gate, 16)
        responses = [ticket.wait(timeout=10.0) for ticket in tickets]
    shed = [r for r in responses if r.error_code == "shed"]
    assert shed, "a 16-deep flood against max_queue=1 never shed"
    assert all(r.served_by == "error" for r in shed)
    assert all(r.retry_after_ms == RETRY_AFTER_MS for r in shed)
    assert service.res_counters["shed_rejected"].value == len(shed)
    answered = [r for r in responses if r.error_code != "shed"]
    assert all(r.ok for r in answered)


def test_overflowing_queue_degrades_to_fallback(tiny_network, registry,
                                                make_ranker, gate):
    service = _engine_service(tiny_network, registry, make_ranker,
                              max_queue=1, shed_policy="degrade")
    with ServingEngine(service, concurrency=1) as engine:
        tickets = _flood(engine, service, gate, 16)
        responses = [ticket.wait(timeout=10.0) for ticket in tickets]
    degraded = [r for r in responses if r.error_code == "shed"]
    assert degraded, "a 16-deep flood against max_queue=1 never shed"
    # Degrade answers with the shortest-path fallback, not an error.
    assert all(r.served_by == "fallback" for r in degraded)
    assert all(r.results for r in degraded)
    assert service.res_counters["shed_degraded"].value == len(degraded)


def test_unbounded_queue_never_sheds(tiny_network, registry, make_ranker):
    service = _engine_service(tiny_network, registry, make_ranker,
                              max_queue=0)
    with ServingEngine(service, concurrency=2) as engine:
        responses = engine.rank_batch(
            [RankRequest(source=0, target=5, request_id=i)
             for i in range(32)])
    assert all(r.ok for r in responses)
    assert service.res_counters["shed_rejected"].value == 0
    assert service.res_counters["shed_degraded"].value == 0


def test_work_parked_for_the_next_flush_counts_against_the_bound(
        tiny_network, registry, make_ranker, gate):
    """While one worker's flush holds the scorer, the free worker keeps
    moving the inbox into the next batch: ``max_queue`` bounds that
    batch too, or an overloaded scorer would let it grow unshed."""
    service = _engine_service(tiny_network, registry, make_ranker,
                              max_queue=1, score_cache_size=0)
    service.warm_up([RankRequest(source=0, target=5)])  # scores not kept
    gate.hold(service.scorer, "score_many")
    engine = ServingEngine(service, concurrency=2)
    try:
        first = engine.submit(RankRequest(source=0, target=5))
        gate.wait_for(1)  # the first flush is held in the scorer
        tickets = []
        for i in range(16):
            ticket = engine.submit(RankRequest(source=0, target=5,
                                               request_id=i))
            tickets.append(ticket)
            give_up_at = time.perf_counter() + 5.0
            while not (ticket.done or ticket in engine._pending):
                assert time.perf_counter() < give_up_at, \
                    "the free worker never parked the request"
                time.sleep(0.002)
        assert len(engine._pending) == 1
    finally:
        gate.release()
        engine.close()
    responses = [ticket.wait(timeout=0.0) for ticket in tickets]
    shed = [r for r in responses if r.error_code == "shed"]
    assert len(shed) == len(tickets) - 1
    assert service.res_counters["shed_rejected"].value == len(shed)
    assert first.wait(timeout=0.0).served_by == "model"
    assert responses[0].served_by == "model"


@pytest.mark.parametrize("deadline_ms", [math.inf, math.nan])
def test_engine_refuses_a_non_finite_deadline(tiny_network, registry,
                                              make_ranker, deadline_ms):
    """A non-finite budget is refused at admission, answered before
    ``submit`` returns: the engine never admits a deadline that never
    expires."""
    service = _engine_service(tiny_network, registry, make_ranker)
    with ServingEngine(service, concurrency=1) as engine:
        ticket = engine.submit(RankRequest(
            source=0, target=5, deadline_ms=deadline_ms))
        assert ticket.done
        response = ticket.wait(timeout=0.0)
    assert response.served_by == "error"
    assert response.error_code == "invalid_request"


@pytest.mark.parametrize("request_", BOOL_AND_NON_INTEGER_REQUESTS)
def test_engine_refuses_bool_and_non_integer_fields(tiny_network, registry,
                                                    make_ranker, request_):
    service = _engine_service(tiny_network, registry, make_ranker)
    with ServingEngine(service, concurrency=1) as engine:
        response = engine.submit(request_).wait(timeout=5.0)
    assert (response.served_by, response.error_code) \
        == ("error", "invalid_request")
    assert response.results == ()
    assert service.res_counters["invalid_requests"].value == 1


def test_close_fails_outstanding_tickets(tiny_network, registry, make_ranker,
                                        gate):
    """close() answers every in-flight ticket with a structured
    ``engine_closed`` error — no waiter blocks forever."""
    service = _engine_service(tiny_network, registry, make_ranker)
    engine = ServingEngine(service, concurrency=1)
    gate.hold(service, "prepare")
    tickets = [engine.submit(RankRequest(source=0, target=5, request_id=i))
               for i in range(4)]
    gate.wait_for(1)  # the lone worker is wedged in the candidate stage

    closer = threading.Thread(target=engine.close, kwargs={"timeout": 0.2})
    closer.start()
    try:
        responses = [ticket.wait(timeout=10.0) for ticket in tickets]
    finally:
        gate.release()
        closer.join(timeout=10.0)
    failed = [r for r in responses if r.error_code == "engine_closed"]
    assert failed, "close() abandoned in-flight tickets"
    assert all(r.served_by == "error" for r in failed)
    with pytest.raises(ServingError):
        engine.submit(RankRequest(source=0, target=5))


def test_close_answers_each_ticket_once(tiny_network, registry, make_ranker,
                                       gate):
    """A worker that comes back from a stage after close() failed its
    tickets records nothing again and leaves every response as the
    waiter got it."""
    service = _engine_service(tiny_network, registry, make_ranker)
    engine = ServingEngine(service, concurrency=1)
    gate.hold(service, "prepare")
    tickets = [engine.submit(RankRequest(source=0, target=5, request_id=i))
               for i in range(4)]
    gate.wait_for(1)  # the lone worker is wedged in the candidate stage
    try:
        engine.close(timeout=0.2)
        # The join gave up on the wedged worker: close() keeps it listed.
        assert [worker.is_alive() for worker in engine._workers] == [True]
        responses = [ticket.wait(timeout=10.0) for ticket in tickets]
        assert service.counters["requests"].value == 4
    finally:
        gate.release()
    for worker in engine._workers:
        worker.join(timeout=10.0)
        assert not worker.is_alive()
    assert service.counters["requests"].value == 4
    assert all(ticket.state.response is response
               for ticket, response in zip(tickets, responses))
    assert all(response.error_code == "engine_closed"
               for response in responses)


def test_close_answers_each_flushed_ticket_once(tiny_network, registry,
                                               make_ranker, gate):
    """A flush that comes back from the scorer after close() failed its
    tickets assembles none of them again."""
    service = _engine_service(tiny_network, registry, make_ranker)
    engine = ServingEngine(service, concurrency=1)
    gate.hold(service.scorer, "score_many")
    tickets = [engine.submit(RankRequest(source=s, target=5, request_id=s))
               for s in range(4)]
    gate.wait_for(1)  # the lone worker's flush is wedged in the scorer
    try:
        engine.close(timeout=0.2)
        # The join gave up on the wedged worker: close() keeps it listed.
        assert [worker.is_alive() for worker in engine._workers] == [True]
        responses = [ticket.wait(timeout=10.0) for ticket in tickets]
        completed = [ticket.completed for ticket in tickets]
    finally:
        gate.release()
    for worker in engine._workers:
        worker.join(timeout=10.0)
        assert not worker.is_alive()
    assert service.counters["requests"].value == 4
    assert [ticket.completed for ticket in tickets] == completed
    assert all(ticket.state.response is response
               for ticket, response in zip(tickets, responses))
    assert all(response.error_code == "engine_closed"
               for response in responses)


# ----------------------------------------------------------------------
# Dormant parity (satellite c): armed-but-idle plane changes nothing
# ----------------------------------------------------------------------
def test_dormant_resilience_keeps_exact_parity(tiny_network, registry,
                                               make_ranker):
    registry.publish(make_ranker(tiny_network, seed=1), activate=True)
    plain = RankingService(tiny_network, registry,
                           ServingConfig(candidates=CANDIDATES))
    armed = RankingService(tiny_network, registry, ServingConfig(
        candidates=CANDIDATES, deadline_ms=120_000.0, max_queue=4096))
    requests = [RankRequest(source=s, target=t)
                for s in range(6) for t in range(6) if s != t]
    baseline = [plain.rank(request) for request in requests]
    for mine, theirs in zip(map(armed.rank, requests), baseline):
        assert mine.served_by == theirs.served_by
        assert mine.model_version == theirs.model_version
        assert [p.path.vertices for p in mine.results] \
            == [p.path.vertices for p in theirs.results]
        assert [p.score for p in mine.results] \
            == pytest.approx([p.score for p in theirs.results])
    counters = armed.stats()["resilience"]["counters"]
    assert all(v == 0 for v in counters.values())
    with ServingEngine(armed, concurrency=4) as engine:
        concurrent = engine.rank_batch(requests)
    for mine, theirs in zip(concurrent, baseline):
        assert [p.path.vertices for p in mine.results] \
            == [p.path.vertices for p in theirs.results]
