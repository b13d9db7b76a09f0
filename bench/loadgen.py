"""Seeded inputs and the single-threaded load drivers.

Everything a workload feeds the program is drawn here from one
``numpy`` generator seeded by ``--seed``; nothing is imported from
``repro.serving.loadgen`` or any ``*_bench`` module, so editing program
code cannot move the workload.  The two drivers are the only places
that talk to a :class:`~repro.serving.engine.ServingEngine`.
"""

from __future__ import annotations

import hashlib
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ServingError
from repro.graph import shortest_path


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def od_stream(network, rng: np.random.Generator, *, min_km: float,
              hops: tuple[int, int]):
    """Endless stream of distinct OD pairs.

    A pair qualifies when its endpoints lie at least ``min_km`` apart
    (straight line) and its shortest path has between ``hops[0]`` and
    ``hops[1]`` vertices.  Candidate enumeration cost grows with the
    hop count (correlation 0.8 at calibration), so the band is what
    keeps a 50-request sample comparable from seed to seed.
    """
    n = network.num_vertices
    low, high = hops
    seen: set[tuple[int, int]] = set()
    while True:
        source, target = (int(v) for v in rng.integers(0, n, 2))
        if source == target or (source, target) in seen:
            continue
        if network.euclidean(source, target) < min_km * 1000.0:
            continue
        if not low <= shortest_path(network, source, target).num_vertices <= high:
            continue
        seen.add((source, target))
        yield source, target


def take(stream, count: int) -> list:
    return [next(stream) for _ in range(count)]


def zipf_indices(rng: np.random.Generator, slots: int, exponent: float,
                 count: int) -> list[int]:
    """``count`` draws from Zipf(``exponent``) over ``slots`` ranks."""
    weights = 1.0 / np.arange(1, slots + 1) ** exponent
    return rng.choice(slots, size=count, p=weights / weights.sum()).tolist()


def poisson_offsets(rng: np.random.Generator, rate: float,
                    seconds: float) -> list[float]:
    """Arrival offsets of a Poisson process at ``rate``/s over ``seconds``."""
    count = max(1, int(rate * seconds * 1.5) + 16)
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=count))
    return offsets[offsets < seconds].tolist()


def digest(items) -> str:
    """blake2b over the repr of every item: the pin of an op list."""
    h = hashlib.blake2b(digest_size=16)
    for item in items:
        h.update(repr(item).encode("ascii"))
    return h.hexdigest()


# ----------------------------------------------------------------------
# Load drivers
# ----------------------------------------------------------------------
def grade(response, outcomes: dict[str, int]) -> bool:
    """Structural check of one response: served by the model, non-empty,
    sorted best first.  A miss is counted under its kind."""
    if response is None:
        kind = "hung"
    elif response.served_by == "error":
        kind = "refused"
    elif response.served_by != "model":
        kind = "degraded"
    else:
        previous = float("inf")
        for entry in response.results:
            if entry.score > previous:
                break
            previous = entry.score
        else:
            if response.results:
                return True
        kind = "malformed"
    outcomes[kind] = outcomes.get(kind, 0) + 1
    return False


@dataclass
class Phase:
    """What one driver phase observed.  Responses are graded as they
    are collected and then dropped: keeping them alive would make the
    collector's full passes part of what is measured."""

    attempted: int = 0
    ok: int = 0
    within: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    lateness_ms: list[float] = field(default_factory=list)
    spans: list[tuple[float, float]] = field(default_factory=list)
    service_ms: float = 0.0     # summed RankResponse.latency_ms
    outcomes: dict[str, int] = field(default_factory=dict)
    wall_s: float = 0.0


def _collect(ticket, hang_s: float):
    try:
        return ticket.wait(hang_s)
    except ServingError:      # not answered in time: a hung ticket
        return None


def open_loop(engine, requests, offsets, limit_ms: float,
              hang_s: float) -> Phase:
    """Submit ``requests`` on a fixed schedule, whatever the engine does.

    Latency runs from the instant a request was *due* to the instant the
    pipeline finished it (``EngineTicket.completed``), so a stall is
    charged to every request it delays; how late the generator itself
    ran is reported beside it.
    """
    phase = Phase()
    submit = engine.submit
    clock = time.perf_counter
    tickets = []
    began = clock() + 0.002
    for request, offset in zip(requests, offsets):
        due = began + offset
        now = clock()
        while now < due:
            gap = due - now
            time.sleep(gap if gap > 0.0002 else 0.0)
            now = clock()
        tickets.append((submit(request), due))
        phase.lateness_ms.append((now - due) * 1000.0)
    for ticket, due in tickets:
        response = _collect(ticket, hang_s)
        phase.attempted += 1
        good = grade(response, phase.outcomes)
        phase.ok += good
        if response is not None:
            latency = (ticket.completed - due) * 1000.0
            phase.latencies_ms.append(latency)
            phase.spans.append((due, ticket.completed))
            phase.service_ms += response.latency_ms
            phase.within += good and latency <= limit_ms
    phase.wall_s = clock() - began
    return phase


def closed_loop(engine, requests, window: int, seconds: float,
                hang_s: float) -> Phase:
    """One thread keeping ``window`` tickets outstanding for ``seconds``.

    ``requests`` is cycled.  Only responses collected before the clock
    ran out are counted; the tickets still in flight are drained
    afterwards so nothing is left behind in the engine.
    """
    phase = Phase()
    submit = engine.submit
    clock = time.perf_counter
    outstanding: deque = deque()
    position, count = 0, len(requests)
    began = clock()
    stop = began + seconds
    while True:
        while len(outstanding) < window:
            outstanding.append(submit(requests[position % count]))
            position += 1
        ticket = outstanding.popleft()
        response = _collect(ticket, hang_s)
        phase.attempted += 1
        phase.ok += grade(response, phase.outcomes)
        if response is not None:
            phase.spans.append((ticket.submitted, ticket.completed))
            phase.service_ms += response.latency_ms
        if clock() >= stop:
            break
    phase.wall_s = clock() - began
    for ticket in outstanding:
        _collect(ticket, hang_s)
    return phase
