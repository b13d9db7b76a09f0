"""The serving resilience plane: deadlines, shedding, breakers, retries.

Everything below PR 6 fails *open-ended*: a slow or poisoned scorer
stalls whole flush batches, admission queues grow without bound under
overload, and a waiter can block forever on a ticket whose worker died.
This module holds the policy objects that turn those failure modes into
*bounded* ones:

* :class:`ResilienceConfig` — the knobs, carried on
  :class:`~repro.serving.service.ServingConfig` (``config.resilience``)
  and surfaced as ``--deadline-ms`` / ``--max-queue`` / ``--shed-policy``
  CLI flags.  The defaults keep every mechanism dormant or free:
  no deadline, unbounded queue, breakers that only pay a per-*group*
  (not per-request) window append, and retries that only run after a
  failure already happened — so a service that never fails is
  byte-identical in behaviour to the PR-6 stack.
* **Deadlines** — a per-request millisecond budget
  (``RankRequest.deadline_ms``, defaulting to
  ``resilience.deadline_ms``) carried on ``QueryState`` and checked at
  every pipeline stage boundary (admit → prepare → score → assemble).
  An expired request terminates with a structured
  ``error_code="deadline_exceeded"`` response instead of occupying
  later stages.
* **Load shedding** — a bounded admission queue on the concurrent
  engine (``max_queue``).  When full, ``shed_policy`` picks the
  degradation: ``"reject"`` answers immediately with a structured
  error carrying a ``retry_after_ms`` hint; ``"degrade"`` skips model
  scoring and serves the shortest-path fallback (bounded work in the
  caller's thread, no queue growth either way).
* :class:`CircuitBreaker` — one per service, closed/open/half-open
  over a rolling window of scoring-group outcomes (failures, and
  optionally successes slower than ``breaker_latency_ms``).  While it
  is tripped, requests route straight to the shortest-path fallback
  without touching the scorer; after ``breaker_cooldown_ms`` a few
  half-open probe groups test the scorer and either close the breaker
  again or re-open it.
* :func:`retry_backoff` — deterministic jittered exponential backoff
  for transient scoring/registry failures.  Hash-seeded (not
  RNG-state-seeded) so replays, ``service.rank`` and the engine retry
  on the same schedule.

The service counts how often each mechanism fired in ``resilience.*``
counters of its metrics registry and publishes its breaker's state
next to them.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from hashlib import blake2b

__all__ = ["SHED_POLICIES", "BREAKER_STATES", "ResilienceConfig",
           "CircuitBreaker", "retry_backoff"]

#: What happens to a request the bounded admission queue cannot hold:
#: ``"reject"`` answers it immediately with a structured error (plus a
#: ``retry_after_ms`` hint), ``"degrade"`` serves the shortest-path
#: fallback without queueing any model work.
SHED_POLICIES = ("reject", "degrade")

#: Circuit-breaker lifecycle states.
BREAKER_STATES = ("closed", "open", "half_open")


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the serving resilience plane (all dormant-by-default).

    ``deadline_ms=None`` disables deadline checking entirely;
    ``max_queue=0`` leaves the engine inbox unbounded.  Breakers are on
    by default but cost one deque append per scoring *group* and can
    never trip without real failures; ``retry_attempts`` only runs
    after a failure already happened.  The defaults therefore change
    nothing about a healthy service's responses — the exact-parity
    guarantee ``tests/serving/test_resilience.py`` pins.
    """

    #: Default per-request deadline budget in milliseconds (``None``
    #: disables; ``RankRequest.deadline_ms`` overrides per request).
    deadline_ms: float | None = None
    #: Engine admission-queue bound (requests waiting for a worker);
    #: 0 = unbounded.
    max_queue: int = 0
    #: What to do with a request the full queue cannot admit.
    shed_policy: str = "reject"
    #: ``retry_after_ms`` hint attached to shed-rejected responses.
    retry_after_ms: float = 50.0
    #: The service's circuit breaker over scoring-group outcomes.
    breaker_enabled: bool = True
    #: Rolling outcome window (scoring groups, not requests).
    breaker_window: int = 32
    #: Minimum outcomes in the window before the breaker may trip.
    breaker_min_samples: int = 8
    #: Failure fraction of the window at which the breaker opens.
    breaker_failure_rate: float = 0.5
    #: Optional latency SLO: a successful group slower than this counts
    #: as a failure in the window (``None`` = outcome-only).
    breaker_latency_ms: float | None = None
    #: How long an open breaker blocks scoring before probing.
    breaker_cooldown_ms: float = 1000.0
    #: Consecutive half-open probe successes required to close again.
    breaker_half_open_probes: int = 2
    #: Transient scoring/registry failures retried this many times
    #: (0 disables; retries never extend past the request deadline).
    retry_attempts: int = 1
    #: Exponential backoff base (first retry waits ~this long).
    retry_base_ms: float = 1.0
    #: Backoff cap per attempt.
    retry_max_ms: float = 50.0
    #: Jitter fraction in [0, 1]: each delay is scaled by a
    #: deterministic draw from ``[1 - jitter, 1]``.
    retry_jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.deadline_ms is not None \
                and not 0.0 < self.deadline_ms < math.inf:
            raise ValueError(
                f"deadline_ms must be finite and > 0 (or None), "
                f"got {self.deadline_ms}")
        if self.max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {self.max_queue}")
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"shed_policy must be one of {SHED_POLICIES}, "
                f"got {self.shed_policy!r}")
        if self.retry_after_ms < 0.0:
            raise ValueError(
                f"retry_after_ms must be >= 0, got {self.retry_after_ms}")
        if self.breaker_window < 1:
            raise ValueError(
                f"breaker_window must be >= 1, got {self.breaker_window}")
        if not 1 <= self.breaker_min_samples <= self.breaker_window:
            raise ValueError(
                f"breaker_min_samples must be in [1, breaker_window], "
                f"got {self.breaker_min_samples}")
        if not 0.0 < self.breaker_failure_rate <= 1.0:
            raise ValueError(
                f"breaker_failure_rate must be in (0, 1], "
                f"got {self.breaker_failure_rate}")
        if self.breaker_latency_ms is not None \
                and self.breaker_latency_ms <= 0.0:
            raise ValueError(
                f"breaker_latency_ms must be > 0 (or None), "
                f"got {self.breaker_latency_ms}")
        if self.breaker_cooldown_ms < 0.0:
            raise ValueError(
                f"breaker_cooldown_ms must be >= 0, "
                f"got {self.breaker_cooldown_ms}")
        if self.breaker_half_open_probes < 1:
            raise ValueError(
                f"breaker_half_open_probes must be >= 1, "
                f"got {self.breaker_half_open_probes}")
        if self.retry_attempts < 0:
            raise ValueError(
                f"retry_attempts must be >= 0, got {self.retry_attempts}")
        if self.retry_base_ms < 0.0 or self.retry_max_ms < 0.0:
            raise ValueError("retry_base_ms and retry_max_ms must be >= 0")
        if not 0.0 <= self.retry_jitter <= 1.0:
            raise ValueError(
                f"retry_jitter must be in [0, 1], got {self.retry_jitter}")

    @property
    def active(self) -> bool:
        """Whether any mechanism beyond the free defaults is armed."""
        return (self.deadline_ms is not None or self.max_queue > 0
                or self.breaker_enabled or self.retry_attempts > 0)


def retry_backoff(attempt: int, config: ResilienceConfig,
                  key: object = None) -> float:
    """The jittered exponential delay (seconds) before retry ``attempt``.

    Attempt 1 waits ~``retry_base_ms``, doubling per attempt up to
    ``retry_max_ms``.  Jitter is a deterministic hash draw over
    ``(key, attempt)`` — not RNG state — so the same request retries on
    the same schedule on every front door and every replay, while
    different requests (different keys) de-synchronise instead of
    thundering back in lock-step.
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    delay_ms = min(config.retry_base_ms * 2.0 ** (attempt - 1),
                   config.retry_max_ms)
    if config.retry_jitter > 0.0:
        digest = blake2b(repr((key, attempt)).encode("utf-8"),
                         digest_size=8).digest()
        draw = int.from_bytes(digest, "big") / 2.0 ** 64  # [0, 1)
        delay_ms *= 1.0 - config.retry_jitter * draw
    return delay_ms / 1000.0


class CircuitBreaker:
    """Closed/open/half-open gate over a service's scoring health.

    Outcomes are recorded per scoring *group* (one coalesced pass over a
    model snapshot), not per request, so the hot-path cost is one deque append
    per forward batch.  The clock is injectable for deterministic
    lifecycle tests.

    * **closed** — everything flows; a rolling window of the last
      ``breaker_window`` outcomes trips the breaker open once at least
      ``breaker_min_samples`` outcomes show a failure fraction of
      ``breaker_failure_rate`` or worse.
    * **open** — :meth:`allow` refuses (the service routes the group's
      requests to the shortest-path fallback) until ``breaker_cooldown_ms``
      has elapsed, then the breaker moves to half-open.
    * **half-open** — up to ``breaker_half_open_probes`` probe groups
      are admitted; that many consecutive successes close the breaker,
      any failure re-opens it (and restarts the cooldown).
    """

    def __init__(self, config: ResilienceConfig,
                 clock=time.monotonic) -> None:
        self.config = config
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        #: Rolling outcomes, newest last; ``True`` = failure.
        self._window: deque[bool] = deque(maxlen=config.breaker_window)
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
                >= self.config.breaker_cooldown_ms:
            self._state = "half_open"
            self._probes_in_flight = 0
            self._probe_successes = 0

    def allow(self) -> bool:
        """Whether the scorer may score a group right now.

        In half-open state this *claims* a probe slot, so callers must
        follow every allowed attempt with :meth:`record_success` or
        :meth:`record_failure`.
        """
        with self._lock:
            self._maybe_half_open_locked()
            if self._state == "closed":
                return True
            if self._state == "half_open" \
                    and self._probes_in_flight \
                    < self.config.breaker_half_open_probes:
                self._probes_in_flight += 1
                return True
            self.rejections += 1
            return False

    def record_success(self, latency_ms: float | None = None) -> None:
        slo = self.config.breaker_latency_ms
        failed = (slo is not None and latency_ms is not None
                  and latency_ms > slo)
        self._record(failed)

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
                    if self._probe_successes \
                            >= self.config.breaker_half_open_probes:
                        self._state = "closed"
                        self._window.clear()
                        self.recoveries += 1
                return
            if self._state == "open":
                # A straggler outcome from before the trip: ignore, the
                # cooldown clock is already running.
                return
            self._window.append(failed)
            if len(self._window) >= self.config.breaker_min_samples:
                failures = sum(self._window)
                if failures / len(self._window) \
                        >= self.config.breaker_failure_rate:
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

