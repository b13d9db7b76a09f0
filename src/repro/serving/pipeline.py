"""The staged serving pipeline's data model.

Every query — one at a time through
:meth:`~repro.serving.service.RankingService.rank` or batched through
the concurrent :class:`~repro.serving.engine.ServingEngine`, the front
door for batches — moves through the same four stages:

1. **admission** — validate the request, then resolve the candidate
   configuration, the registry's active model snapshot that will
   answer it and the cached candidate entry, if any;
2. **candidate generation** — cache-aware TkDI / D-TkDI enumeration on
   the full network;
3. **scoring** — the entry's memoised scores for the snapshot's
   version, else coalesced batched forward passes, grouped per model
   snapshot (a flush can straddle a hot-swap);
4. **response assembly** — ranking, degradation, and metrics.

The stage implementations live on :class:`RankingService` (they need its
caches, scorer, and registry) and never raise: a failure becomes the
state's ``error`` or ``degraded``.  This module holds what the stages
operate *on*: the mutable :class:`QueryState` record threaded through
the pipeline.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.graph.path import Path
from repro.obs.trace import Trace
from repro.ranking.training_data import TrainingDataConfig
from repro.serving.cache import CandidateEntry
from repro.serving.registry import ActiveModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.service import RankRequest, RankResponse

__all__ = ["QueryState"]


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
    #: Model snapshot that will score this request.
    active: ActiveModel | None = None
    #: Candidate-cache entry the paths come from; admission sets it when
    #: the set is already cached, candidate generation otherwise.
    entry: CandidateEntry | None = None
    paths: Sequence[Path] = ()
    cache_hit: bool = False
    scores: list[float] | None = None
    #: Request-level failure (e.g. candidate generation): terminal.
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

    @property
    def hot(self) -> bool:
        """Whether the entry already holds scores for the snapshot's
        version: answering needs neither enumeration nor a forward pass."""
        return (self.error is None and self.active is not None
                and self.entry is not None
                and self.entry.scores_for(self.active.version) is not None)

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

