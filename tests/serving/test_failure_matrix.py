"""The failure matrix: every ticket is answered, whatever raises where.

Each case raises one exception type at one seam of the serving stack,
with the service's breaker in one state, and sends a hot/cold/invalid
request mix through one front door.  It asserts that

* every ticket is done within a bound, and every engine thread is
  still alive afterwards, also after a burst of concurrent submits;
* the door answers each request as ``service.rank`` does on an
  identical service (``served_by``, ``error``, ``error_code`` and the
  paths), and ``service.rank`` answers as the table in :func:`_expected`
  says wherever the answer does not depend on which group probes a
  half-open breaker;
* each answer is recorded once;
* a healthy request after the fault is model-served once the breaker's
  cooldown has passed.

The seams are patched to raise real exceptions.  ``probe`` is the
candidate-cache lookup admission makes, ``resolve`` the single-flight
lookup the candidate stage makes on a miss, and ``scorer`` the
coalesced scoring pass in front of the forward pass.
"""

from unittest.mock import ANY

import pytest

from repro.core.model import PathRank
from repro.errors import ServingError
from repro.ranking import Strategy, TrainingDataConfig
from repro.serving import (
    CircuitBreaker,
    RankingService,
    RankRequest,
    ServingConfig,
    ServingEngine,
)
from repro.serving import service as service_module
from repro.serving.batching import BatchingScorer
from repro.serving.cache import CandidateCache
from repro.serving.resilience import BREAKER_COOLDOWN_MS

CANDIDATES = TrainingDataConfig(strategy=Strategy.TKDI, k=3)
SEAMS = ("candidates", "forward", "rank_paths", "shortest_path", "snapshot",
         "metrics", "probe", "resolve", "scorer")
ERRORS = {"ReproError": ServingError, "RuntimeError": RuntimeError}
BREAKER_STATES = ("closed", "open", "half_open")
#: ``rank`` is ``service.rank``; ``engine-N`` an engine of N workers.
DOORS = ("rank", "engine-1", "engine-4")

HOT = (RankRequest(source=0, target=5), RankRequest(source=3, target=2))
COLD = (RankRequest(source=1, target=5), RankRequest(source=4, target=0),
        RankRequest(source=5, target=3))
INVALID = (RankRequest(source=99, target=5),
           RankRequest(source=0, target=5, k=0))
#: ``(kind, request)``: hot requests have cached candidates and scores,
#: cold ones neither (until the mix itself caches what succeeds).  A
#: cold request comes first, so a half-open breaker's first probe is
#: one that a forward-pass fault fails.
MIX = (("cold", COLD[0]), ("hot", HOT[0]), ("invalid", INVALID[0]),
       ("cold", COLD[1]), ("hot", HOT[1]), ("invalid", INVALID[1]),
       ("cold", COLD[2]), ("hot", HOT[0]))
HEALTHY = RankRequest(source=2, target=3)
#: Seconds any one ticket may take.
BOUND_S = 5.0


class FakeClock:
    """A monotonic clock that moves only when told to (seconds)."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance_ms(self, ms: float) -> None:
        self.now += ms / 1000.0


def _service(network, registry, breaker_state):
    """A service with warm hot requests and its breaker in the state."""
    service = RankingService(network, registry,
                             ServingConfig(candidates=CANDIDATES))
    clock = FakeClock()
    service.breaker = CircuitBreaker(clock=clock)
    warm = [service.rank(request) for request in HOT]
    assert all(response.served_by == "model" for response in warm)
    if breaker_state != "closed":
        while service.breaker.state == "closed":
            service.breaker.record_failure()
        if breaker_state == "half_open":
            clock.advance_ms(BREAKER_COOLDOWN_MS)
    assert service.breaker.state == breaker_state
    return service, clock, warm


def _arm(monkeypatch, seam, error, registry) -> None:
    def explode(*args, **kwargs):
        raise error(f"{seam} exploded")

    owner, name = {
        "candidates": (service_module, "generate_candidates"),
        "forward": (PathRank, "score_paths"),
        "rank_paths": (service_module, "rank_paths"),
        "shortest_path": (service_module, "shortest_path"),
        "snapshot": (registry, "snapshot"),
        "metrics": (RankingService, "_record"),
        "probe": (CandidateCache, "probe"),
        "resolve": (CandidateCache, "resolve"),
        "scorer": (BatchingScorer, "score_many"),
    }[seam]
    monkeypatch.setattr(owner, name, explode)


def _expected(seam, breaker_state, kind):
    """``service.rank``'s ``(served_by, error, error_code)`` for a
    request of ``kind`` on the armed service, or ``None`` where it
    depends on which scoring group probes a half-open breaker."""
    if kind == "invalid":
        return ("error", ANY, "invalid_request")
    failed = ("error", f"{seam} exploded", None)
    if seam in ("snapshot", "probe") \
            or (seam in ("candidates", "resolve") and kind == "cold"):
        return failed
    if breaker_state == "half_open":
        return None
    if breaker_state == "open":
        if seam == "shortest_path":
            return ("error", f"{seam} exploded", "breaker_open")
        return ("fallback", "circuit breaker open", "breaker_open")
    if seam == "rank_paths":
        return failed
    if seam in ("forward", "scorer") and kind == "cold":
        return ("fallback", f"{seam} exploded", None)
    return ("model", None, None)


def _answer(response):
    return (response.served_by, response.error, response.error_code,
            [ranked.path.vertices for ranked in response.results])


@pytest.mark.parametrize("door", DOORS)
@pytest.mark.parametrize("breaker_state", BREAKER_STATES)
@pytest.mark.parametrize("error", list(ERRORS.values()), ids=list(ERRORS))
@pytest.mark.parametrize("seam", SEAMS)
def test_every_ticket_is_answered(tiny_network, registry, make_ranker,
                                  monkeypatch, seam, error, breaker_state,
                                  door):
    registry.publish(make_ranker(tiny_network, seed=1), activate=True)
    reference, _, _ = _service(tiny_network, registry, breaker_state)
    service, clock, recorded = _service(tiny_network, registry,
                                        breaker_state)
    _arm(monkeypatch, seam, error, registry)
    expected = [_answer(reference.rank(request)) for _, request in MIX]
    for (kind, _), answer in zip(MIX, expected):
        wanted = _expected(seam, breaker_state, kind)
        if wanted is not None:
            assert tuple(answer[:3]) == wanted

    armed: list = []
    if door == "rank":
        armed += [service.rank(request) for _, request in MIX]
        answers = [_answer(response) for response in armed]
        monkeypatch.undo()
        clock.advance_ms(BREAKER_COOLDOWN_MS)
        healthy = service.rank(HEALTHY)
    else:
        with ServingEngine(service, concurrency=int(door[-1])) as engine:
            armed += [engine.rank(request, timeout=BOUND_S)
                      for _, request in MIX]
            answers = [_answer(response) for response in armed]
            tickets = [engine.submit(request) for _, request in MIX]
            armed += [ticket.wait(BOUND_S) for ticket in tickets]
            monkeypatch.undo()
            clock.advance_ms(BREAKER_COOLDOWN_MS)
            healthy = engine.rank(HEALTHY, timeout=BOUND_S)
            assert all(thread.is_alive() for thread in engine._workers)
    assert answers == expected
    assert healthy.served_by == "model"

    # Each answer is counted once; the metrics seam counted none of the
    # answers it gave while armed.
    recorded += [] if seam == "metrics" else armed
    recorded.append(healthy)
    assert service.counters["requests"].value == len(recorded)
    assert service.counters["failed"].value \
        == sum(response.served_by == "error" for response in recorded)
