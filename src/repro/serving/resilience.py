"""The serving resilience plane: deadlines, shedding and a breaker.

The policies that keep a failing or overloaded service's answers
*bounded* and *structured*:

* **Deadlines** — a per-request millisecond budget
  (``RankRequest.deadline_ms``, defaulting to
  ``ServingConfig.deadline_ms``) carried on ``QueryState`` and checked
  at every pipeline stage boundary (admit → prepare → score →
  assemble).  An expired request terminates with a structured
  ``error_code="deadline_exceeded"`` response instead of occupying
  later stages.
* **Load shedding** — a bounded admission queue on the concurrent
  engine (``ServingConfig.max_queue``).  When full,
  ``ServingConfig.shed_policy`` picks the degradation: ``"reject"``
  answers immediately with a structured error carrying a
  :data:`RETRY_AFTER_MS` hint; ``"degrade"`` skips model scoring and
  serves the shortest-path fallback (bounded work in the caller's
  thread, no queue growth either way).
* :class:`CircuitBreaker` — one per service, closed/open/half-open over
  a rolling window of scoring-group outcomes.  While it is tripped,
  requests route straight to the shortest-path fallback without
  touching the scorer; after :data:`BREAKER_COOLDOWN_MS` a few
  half-open probe groups test the scorer and either close the breaker
  again or re-open it.

A scoring group that fails with a library error is not retried as a
group: the service scores each member again on its own, and only a
member that fails again degrades to the shortest path.

Only the deadline, the queue bound and the shed policy are settings
(``ServingConfig`` fields, and the CLI's ``--deadline-ms`` /
``--max-queue`` / ``--shed-policy``); everything else is a constant
below.  The default settings keep deadlines and shedding dormant, and
the breaker acts only after a failure already happened, so a service
that never fails answers exactly as one without the plane.  The
service counts how often each mechanism fired in ``resilience.*``
counters of its metrics registry and publishes its breaker's state
next to them.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import threading
import time
from collections import deque

__all__ = ["SHED_POLICIES", "BREAKER_STATES", "BREAKER_WINDOW",
           "BREAKER_MIN_SAMPLES", "BREAKER_FAILURE_RATE",
           "BREAKER_COOLDOWN_MS", "BREAKER_HALF_OPEN_PROBES",
           "RETRY_AFTER_MS", "CircuitBreaker"]

#: What happens to a request the bounded admission queue cannot hold:
#: ``"reject"`` answers it immediately with a structured error (plus a
#: ``retry_after_ms`` hint), ``"degrade"`` serves the shortest-path
#: fallback without queueing any model work.
SHED_POLICIES = ("reject", "degrade")

#: Circuit-breaker lifecycle states.
BREAKER_STATES = ("closed", "open", "half_open")

#: Rolling outcome window (scoring groups, not requests).
BREAKER_WINDOW = 32
#: Minimum outcomes in the window before the breaker may trip.
BREAKER_MIN_SAMPLES = 8
#: Failure fraction of the window at which the breaker opens.
BREAKER_FAILURE_RATE = 0.5
#: How long an open breaker blocks scoring before probing.
BREAKER_COOLDOWN_MS = 1000.0
#: Consecutive half-open probe successes required to close again.
BREAKER_HALF_OPEN_PROBES = 2
#: ``retry_after_ms`` hint attached to shed and deadline rejections.
RETRY_AFTER_MS = 50.0


class CircuitBreaker:
    """Closed/open/half-open gate over a service's scoring health.

    Outcomes are recorded per scoring *group* (one coalesced pass over a
    model snapshot), not per request, so the hot-path cost is one deque
    append per forward batch.  The clock is injectable for deterministic
    lifecycle tests.

    * **closed** — everything flows; a rolling window of the last
      :data:`BREAKER_WINDOW` outcomes trips the breaker open once at
      least :data:`BREAKER_MIN_SAMPLES` outcomes show a failure fraction
      of :data:`BREAKER_FAILURE_RATE` or worse.
    * **open** — :meth:`allow` refuses (the service routes the group's
      requests to the shortest-path fallback) until
      :data:`BREAKER_COOLDOWN_MS` has elapsed, then the breaker moves to
      half-open.
    * **half-open** — up to :data:`BREAKER_HALF_OPEN_PROBES` probe
      groups are admitted; that many consecutive successes close the
      breaker, any failure re-opens it (and restarts the cooldown).
    """

    def __init__(self, clock=time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        #: Rolling outcomes, newest last; ``True`` = failure.
        self._window: deque[bool] = deque(maxlen=BREAKER_WINDOW)
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._probe_successes = 0
        self.trips = 0
        self.rejections = 0
        self.recoveries = 0

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open_locked()
            return self._state

    def _maybe_half_open_locked(self) -> None:
        if self._state == "open" and (self._clock() - self._opened_at) * 1000.0 \
                >= BREAKER_COOLDOWN_MS:
            self._state = "half_open"
            self._probes_in_flight = 0
            self._probe_successes = 0

    def allow(self) -> bool:
        """Whether the scorer may score a group right now.

        In half-open state this *claims* a probe slot, so callers must
        follow every allowed attempt with exactly one
        :meth:`record_success` or :meth:`record_failure`.
        """
        with self._lock:
            self._maybe_half_open_locked()
            if self._state == "closed":
                return True
            if self._state == "half_open" \
                    and self._probes_in_flight < BREAKER_HALF_OPEN_PROBES:
                self._probes_in_flight += 1
                return True
            self.rejections += 1
            return False

    def record_success(self) -> None:
        self._record(False)

    def record_failure(self) -> None:
        self._record(True)

    def _record(self, failed: bool) -> None:
        with self._lock:
            self._maybe_half_open_locked()
            if self._state == "half_open":
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                if failed:
                    self._trip_locked()
                else:
                    self._probe_successes += 1
                    if self._probe_successes >= BREAKER_HALF_OPEN_PROBES:
                        self._state = "closed"
                        self._window.clear()
                        self.recoveries += 1
                return
            if self._state == "open":
                # A straggler outcome from before the trip: ignore, the
                # cooldown clock is already running.
                return
            self._window.append(failed)
            if len(self._window) >= BREAKER_MIN_SAMPLES:
                failures = sum(self._window)
                if failures / len(self._window) >= BREAKER_FAILURE_RATE:
                    self._trip_locked()

    def _trip_locked(self) -> None:
        self._state = "open"
        self._opened_at = self._clock()
        self._window.clear()
        self.trips += 1

    def as_dict(self) -> dict[str, object]:
        with self._lock:
            self._maybe_half_open_locked()
            window = list(self._window)
            return {
                "state": self._state,
                "window_size": len(window),
                "window_failures": sum(window),
                "trips": self.trips,
                "rejections": self.rejections,
                "recoveries": self.recoveries,
            }

