"""The staged serving pipeline's data model and routing policy.

Every query — whether it enters through the synchronous
:class:`~repro.serving.service.RankingService` facade or the concurrent
:class:`~repro.serving.engine.ServingEngine` front door — moves through
the same four stages:

1. **admission** — validate the request, then resolve the candidate
   configuration and the model snapshot that will answer it (the active
   model, a per-request pinned version, or a weighted A/B traffic
   split);
2. **candidate generation** — cache-aware TkDI / D-TkDI enumeration on
   the full network;
3. **scoring** — coalesced batched forward passes, grouped per model
   snapshot;
4. **response assembly** — ranking, degradation, and metrics.

The stage implementations live on :class:`RankingService` (they need its
caches, scorer, and registry); this module holds what the stages operate
*on*: the mutable :class:`QueryState` record threaded through the
pipeline, plus the deterministic A/B split assignment both front doors
share.  Keeping assignment a pure function of the request is what makes
engine responses element-wise identical to synchronous ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import TYPE_CHECKING

from repro.errors import ServingError
from repro.graph.path import Path
from repro.obs.trace import Trace
from repro.ranking.training_data import TrainingDataConfig
from repro.serving.registry import ActiveModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.service import RankRequest, RankResponse

__all__ = ["QueryState", "TrafficSplit", "normalise_split", "assign_split",
           "tightest_remaining_ms"]

#: A weighted A/B traffic split: ``((version, weight), ...)``.
TrafficSplit = tuple[tuple[str, float], ...]


@dataclass
class QueryState:
    """One request's mutable record as it moves through the stages.

    Exactly one of three terminal shapes emerges at assembly time:
    ``error`` set (the request itself failed, e.g. no path exists),
    ``active`` still ``None`` (no model could answer — serve the
    shortest-path fallback, with ``degraded`` carrying the cause when a
    scoring failure forced the downgrade), or ``scores`` populated (a
    full model-ranked response).
    """

    request: "RankRequest"
    #: ``time.perf_counter()`` at admission; the engine overwrites it
    #: with the submit time so queueing delay counts toward latency.
    started: float = field(default_factory=time.perf_counter)
    #: Candidate configuration after the per-request ``k`` override.
    config: TrainingDataConfig | None = None
    #: The split label this request was routed to (a model version), or
    #: ``None`` when the plain active model answered.
    split: str | None = None
    #: Model snapshot that will score this request.
    active: ActiveModel | None = None
    paths: list[Path] = field(default_factory=list)
    cache_hit: bool = False
    scores: list[float] | None = None
    #: Request-level failure (candidate generation, bad pin): terminal.
    error: str | None = None
    #: Machine-readable failure class for structured error responses
    #: (``invalid_request``, ``deadline_exceeded``, ``shed``,
    #: ``breaker_open``, ``engine_closed``); ``None`` for legacy errors.
    error_code: str | None = None
    #: Scoring-level failure: the request degrades to the fallback.
    degraded: str | None = None
    response: "RankResponse | None" = None
    #: Per-request span recorder when this request was sampled for
    #: tracing; ``None`` (the default) keeps the whole telemetry plane
    #: a single attribute check on the hot path.
    trace: Trace | None = None
    #: ``perf_counter`` when candidate preparation finished — the start
    #: of the flush-queue wait the scoring stage closes off.
    prepared_at: float | None = None
    #: Deadline *budget* in milliseconds measured from ``started``
    #: (``None`` = no deadline).  A budget rather than an absolute
    #: instant so the engine's rebase of ``started`` to the submit time
    #: automatically charges queueing delay against the deadline.
    deadline_ms: float | None = None

    @property
    def scorable(self) -> bool:
        """Whether the scoring stage has work to do for this request."""
        return (self.error is None and self.active is not None
                and bool(self.paths))

    def remaining_ms(self, now: float | None = None) -> float | None:
        """Milliseconds left in the deadline budget (``None`` = no limit)."""
        if self.deadline_ms is None:
            return None
        if now is None:
            now = time.perf_counter()
        return self.deadline_ms - (now - self.started) * 1000.0

    def expired(self, now: float | None = None) -> bool:
        """Whether the deadline budget has run out."""
        remaining = self.remaining_ms(now)
        return remaining is not None and remaining <= 0.0


def tightest_remaining_ms(states) -> float | None:
    """The smallest remaining deadline budget across ``states``.

    ``None`` when no member carries a deadline — the bound a scoring
    group's pool dispatch must respect so the most impatient waiter in
    a coalesced batch is still answered in time.
    """
    tightest: float | None = None
    now = time.perf_counter()
    for state in states:
        remaining = state.remaining_ms(now)
        if remaining is None:
            continue
        if tightest is None or remaining < tightest:
            tightest = remaining
    return tightest


def normalise_split(split) -> TrafficSplit:
    """Validate a traffic split and normalise its weights to sum to 1.

    Accepts a mapping or an iterable of ``(version, weight)`` pairs;
    order is preserved (it defines the assignment intervals, so two
    services configured with the same split route identically).
    """
    pairs = list(split.items()) if hasattr(split, "items") else list(split)
    if not pairs:
        raise ServingError("traffic split must name at least one version")
    seen: set[str] = set()
    total = 0.0
    for version, weight in pairs:
        if not version or not isinstance(version, str):
            raise ServingError(
                f"traffic split version must be a non-empty string, "
                f"got {version!r}"
            )
        if version in seen:
            raise ServingError(
                f"traffic split names version {version!r} twice")
        seen.add(version)
        if not weight > 0.0:
            raise ServingError(
                f"traffic split weight for {version!r} must be > 0, "
                f"got {weight!r}"
            )
        total += float(weight)
    return tuple((version, float(weight) / total) for version, weight in pairs)


def _request_point(request: "RankRequest") -> float:
    """A deterministic uniform draw in ``[0, 1)`` per request identity.

    Hash-based (not RNG-based) so the same request routes to the same
    split on every front door and every replay — the property the
    engine/sync parity contract and sticky A/B assignment both need.
    ``request_id`` participates, so a workload of distinct ids spreads
    across splits even when the OD pair repeats.
    """
    key = repr((request.source, request.target, request.request_id,
                request.k)).encode("utf-8")
    digest = blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


def assign_split(request: "RankRequest", split: TrafficSplit) -> str:
    """The model version a normalised traffic split routes ``request`` to."""
    point = _request_point(request)
    edge = 0.0
    for version, weight in split:
        edge += weight
        if point < edge:
            return version
    return split[-1][0]  # float-rounding guard: the last interval owns 1.0
