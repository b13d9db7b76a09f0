"""The `RankingService` facade: online query answering over one network.

Ties the serving pieces together: candidate generation behind a
:class:`CandidateCache`, scoring behind a :class:`BatchingScorer` with a
version-keyed :class:`ScoreCache`, the model itself behind a
:class:`ModelRegistry` snapshot, and per-request latency / outcome
instrumentation.  When no model is active (or scoring fails with a
library error) the service degrades gracefully to the shortest path
instead of failing the request.

Internally the service is a **staged pipeline** over
:class:`~repro.serving.pipeline.QueryState` records:

* :meth:`RankingService.admit` — validate the request, then resolve the
  candidate configuration and the model snapshot (active, pinned, or
  A/B-split) for it;
* :meth:`RankingService.prepare` — cache-aware candidate generation on
  the full network;
* :meth:`RankingService.score_states` — coalesced scoring of many
  states, grouped per model snapshot, with per-request degradation
  when a batch fails;
* :meth:`RankingService.assemble` — ranking, fallback, and metrics.

:meth:`rank_batch` simply runs the stages back to back; the concurrent
:class:`~repro.serving.engine.ServingEngine` drives the *same* stage
methods from worker threads with deadline-based flushing, which is what
makes its responses element-wise identical to the synchronous path.
Every stage reads the service's one candidate cache, one score cache,
one scorer and (at most) one circuit breaker directly.

**Execution plane.**  ``ServingConfig.execution`` selects how the
CPU-bound stages run: ``"inline"`` (the default — behaviour identical
to before the plane existed) or ``"processes"`` (an
:class:`~repro.exec.plane.ExecutionPlane` of worker processes attached
zero-copy to shared-memory CSR and weight segments executes candidate
generation and the fused forward passes, sidestepping the GIL).  Every
offload degrades to its inline path on pool failure, so the plane never
lowers availability.  See ``docs/parallelism.md``.
"""

from __future__ import annotations

import math
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from repro.core.ranker import generate_candidates, rank_paths
from repro.errors import ExecError, ReproError, ServingError
from repro.graph.csr import csr_if_built
from repro.graph.network import RoadNetwork
from repro.graph.path import Path
from repro.graph.shortest_path import shortest_path
from repro.nn.fused import compiled_if_cached
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.trace import Tracer
from repro.ranking.training_data import TrainingDataConfig
from repro.serving.batching import BatchingScorer
from repro.serving.cache import CandidateCache, ScoreCache
from repro.serving.faults import FaultInjector
from repro.serving.pipeline import (
    QueryState,
    TrafficSplit,
    assign_split,
    normalise_split,
    tightest_remaining_ms,
)
from repro.serving.registry import ActiveModel, ModelRegistry
from repro.serving.resilience import (
    CircuitBreaker,
    ResilienceConfig,
    retry_backoff,
)

__all__ = ["EXECUTION_MODES", "ServingConfig", "RankRequest", "RankedPath",
           "RankResponse", "RankingService"]

#: Execution-plane modes: ``"inline"`` runs every stage in the calling
#: thread (the historical behaviour, and the default); ``"processes"``
#: offloads candidate generation and the fused forward passes to a pool
#: of worker processes over shared-memory hot-state (:mod:`repro.exec`).
EXECUTION_MODES = ("inline", "processes")

#: Request outcome counters, service-wide as ``serving.<name>`` and per
#: traffic-split arm under ``split.<version>.counters.<name>``.
_SERVING_COUNTERS = ("requests", "model_served", "fallback_served", "failed",
                     "hot_swaps")

#: Which outcome counter a response's ``served_by`` lands in.
_OUTCOME_COUNTERS = {"model": "model_served", "fallback": "fallback_served",
                     "error": "failed"}

#: How often each resilience mechanism fired, as ``resilience.<name>``:
#: requests shed per policy, expired by their deadline, or routed to the
#: fallback by an open breaker; backoff sleeps taken and how many of
#: them rescued their scoring group; admissions refused by validation.
_RESILIENCE_COUNTERS = ("shed_rejected", "shed_degraded", "deadline_exceeded",
                        "breaker_degraded", "retries", "retry_successes",
                        "invalid_requests")

#: ``admit``'s default snapshot: the registry's current one.
_CURRENT = object()


def _values(counters: dict[str, Counter]) -> dict[str, int]:
    return {name: counter.value for name, counter in counters.items()}


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of one :class:`RankingService` instance.

    ``traffic_split`` (a ``{version: weight}`` mapping or ``(version,
    weight)`` pairs) routes each request to one of several published
    model versions with probability proportional to its weight —
    deterministically per request identity, so replays and the
    concurrent engine route identically — and segments every score
    cache by the same weights, so a 5% variant keeps 5% of the cache to
    itself instead of being churned out by the majority split.
    ``score_cache_size=0`` disables score memoisation (every request
    pays the forward pass; mainly for benchmarks isolating scoring
    work).  ``max_batch_size`` caps the paths of one forward pass and is
    the concurrent engine's size trigger.
    """

    candidates: TrainingDataConfig = field(default_factory=TrainingDataConfig)
    candidate_cache_size: int = 1024
    score_cache_size: int = 8192
    max_batch_size: int = 64
    fallback_to_shortest: bool = True
    traffic_split: TrafficSplit | None = None
    #: Fraction of requests carrying a per-stage trace (0 disables
    #: tracing entirely; 1.0 traces every request).  Sampled traces feed
    #: the ``serving.stage.*`` histograms and the slow-request exemplar
    #: buffer in ``stats()["trace"]``.
    trace_sample: float = 0.0
    #: Resilience plane: deadlines, admission bounds + shed policy,
    #: the service's circuit breaker, retry backoff.  The defaults keep
    #: every mechanism dormant or free (see
    #: :class:`~repro.serving.resilience.ResilienceConfig`).
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    #: Execution plane (see :data:`EXECUTION_MODES`).  The default
    #: ``"inline"`` keeps the plane fully dormant: no worker processes,
    #: no shared-memory segments, and stage behaviour bit-identical to
    #: a service built before the plane existed.
    execution: str = "inline"
    #: Worker processes behind ``execution="processes"`` (ignored
    #: otherwise).
    workers: int = 2

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.score_cache_size < 0:
            raise ValueError(
                f"score_cache_size must be >= 0, got {self.score_cache_size}"
            )
        if self.execution not in EXECUTION_MODES:
            raise ValueError(
                f"execution must be one of {EXECUTION_MODES}, "
                f"got {self.execution!r}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ValueError(
                f"trace_sample must be in [0, 1], got {self.trace_sample}"
            )
        if self.traffic_split is not None:
            # Normalised once here; dataclass frozen-ness is bypassed the
            # sanctioned way since __post_init__ is part of construction.
            object.__setattr__(self, "traffic_split",
                               normalise_split(self.traffic_split))


@dataclass(frozen=True)
class RankRequest:
    """One live (source, destination) query.

    ``k`` overrides the service's configured candidate-set size for this
    request only (it participates in the candidate-cache key).
    ``model_version`` pins the request to a specific published model
    version, overriding both the active model and any traffic split.
    ``deadline_ms`` caps this request's end-to-end budget (overriding
    ``ServingConfig.resilience.deadline_ms``); when it expires the
    request terminates with a structured ``deadline_exceeded`` error
    instead of occupying later pipeline stages.
    """

    source: int
    target: int
    k: int | None = None
    request_id: int | None = None
    model_version: str | None = None
    deadline_ms: float | None = None


@dataclass(frozen=True)
class RankedPath:
    """One ranked suggestion: position 1 is the top recommendation."""

    path: Path
    score: float
    position: int


@dataclass(frozen=True)
class RankResponse:
    """Outcome of one request, with serving provenance attached."""

    request: RankRequest
    results: tuple[RankedPath, ...]
    served_by: str  # "model" | "fallback" | "error"
    model_version: str | None
    candidate_cache_hit: bool
    latency_ms: float
    error: str | None = None
    #: Machine-readable failure class when the resilience plane shaped
    #: this response (``invalid_request``, ``deadline_exceeded``,
    #: ``shed``, ``breaker_open``, ``engine_closed``); ``None`` for
    #: healthy responses and legacy errors.
    error_code: str | None = None
    #: Backoff hint attached to shed/deadline rejections: how long the
    #: caller should wait before resubmitting.
    retry_after_ms: float | None = None

    @property
    def ok(self) -> bool:
        return self.served_by != "error"

    @property
    def top(self) -> RankedPath | None:
        return self.results[0] if self.results else None


class RankingService:
    """Answers ranking queries against the registry's active model."""

    def __init__(self, network: RoadNetwork, registry: ModelRegistry,
                 config: ServingConfig | None = None) -> None:
        self.network = network
        self.registry = registry
        self.config = config or ServingConfig()
        # Keyed by the network fingerprint too, so a graph mutation
        # (e.g. a live incident closing a road) invalidates entries
        # implicitly.
        self.candidate_cache = CandidateCache(
            self.config.candidate_cache_size, network=network)
        # Segmented by traffic_split whenever one is configured (see
        # ScoreCache); score_cache_size=0 leaves no score cache at all.
        self.score_cache = (
            ScoreCache(self.config.score_cache_size,
                       quotas=self.config.traffic_split)
            if self.config.score_cache_size > 0 else None)
        self.scorer = BatchingScorer(self.config.max_batch_size,
                                     score_cache=self.score_cache)
        # The telemetry plane: every count the service keeps is an
        # instrument recorded once; the per-split books are keyed by
        # data and export through a callback.  export() reads metrics in
        # creation order, so serving.latency is created before the
        # request counter it must never run ahead of (see _record).
        metrics = self.metrics = MetricsRegistry()
        self.latency = metrics.histogram("serving.latency")
        self.counters = {name: metrics.counter(f"serving.{name}")
                         for name in _SERVING_COUNTERS}
        self.res_counters = {name: metrics.counter(f"resilience.{name}")
                             for name in _RESILIENCE_COUNTERS}
        self._split_books: dict[str, tuple[Histogram, dict[str, Counter]]] = {}
        self._books_lock = threading.Lock()
        self.tracer = Tracer(sample=self.config.trace_sample, metrics=metrics)
        # Resilience plane: a circuit breaker over scoring-group
        # outcomes and the (dormant-by-default) fault-injection seam.
        self.resilience = self.config.resilience
        self.breaker: CircuitBreaker | None = (
            CircuitBreaker(self.resilience)
            if self.resilience.breaker_enabled else None)
        self.faults: FaultInjector | None = None
        # Execution plane: dormant unless asked for.  "processes" stands
        # up shared-memory hot-state plus a warm worker pool, and
        # subscribes to registry lifecycle events so a deactivated
        # version's weight segments are unlinked promptly.
        self.plane = None
        if self.config.execution == "processes":
            from repro.exec.plane import ExecutionPlane
            self.plane = ExecutionPlane(network, workers=self.config.workers,
                                        metrics=self.metrics)
            registry.subscribe(self._on_registry_event)
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Publish the state kept outside the registry's instruments.

        Caches, the scorer, the breaker and kernels keep their own
        locked state, and the per-split books are keyed by data; the
        registry pulls each through a callback at export time.
        Every callback that is also a ``stats()`` section is the same
        view function on both sides.
        """
        metrics = self.metrics
        metrics.register_callback("split", self._split_view)
        metrics.register_callback("cache.candidate",
                                  self._candidate_cache_view)
        metrics.register_callback("cache.score", self._score_cache_view)
        metrics.register_callback("scoring", self._scoring_view)
        metrics.register_callback("kernel.routing", self._routing_kernel_view)
        metrics.register_callback("kernel.scoring", self._scoring_kernel_view)
        metrics.register_callback("resilience", self._resilience_view)
        if self.plane is not None:
            # exec.pool.* / exec.arena.* next to the exec.roundtrip_ms /
            # exec.overhead_ms / exec.occupancy histograms the pool
            # records directly into this registry.
            metrics.register_callback("exec", self.plane.stats)

    def _book(self, books: dict, label, make):
        """``books[label]``, made under the books lock on first sight."""
        entry = books.get(label)
        if entry is None:
            with self._books_lock:
                entry = books.get(label)
                if entry is None:
                    entry = books[label] = make()
        return entry

    def _split_view(self) -> dict[str, dict[str, object]]:
        """Per-split latency and outcome counts, keyed by version.

        Only requests a traffic split or a version pin routed land
        here, so the section is a pure view of the experiment traffic.
        """
        with self._books_lock:
            books = sorted(self._split_books.items())
        # The histogram is read before the counters (see _record).
        return {split: {"latency": latency.summary(),
                        "counters": _values(counters)}
                for split, (latency, counters) in books}

    def _candidate_cache_view(self) -> dict[str, object]:
        return self.candidate_cache.stats.as_dict()

    def _score_cache_view(self) -> dict[str, object]:
        if self.score_cache is None:
            return {"disabled": True}
        return self.score_cache.stats.as_dict()

    def _scoring_view(self) -> dict[str, int]:
        return self.scorer.as_dict()

    def _resilience_view(self) -> dict[str, object]:
        """``resilience.*`` beyond the counters.

        The breaker's state under ``resilience.breaker.*`` and the fault
        layer's summary under ``resilience.faults.*`` while armed.
        """
        view: dict[str, object] = {}
        if self.breaker is not None:
            view["breaker"] = self.breaker.as_dict()
        if self.faults is not None:
            stats = self.faults.stats()
            view["faults"] = {
                "armed": stats["armed"],
                "hanging": stats["hanging"],
                "fired": sum(rule["fired"] for rule in stats["rules"]),
            }
        return view

    # ------------------------------------------------------------------
    # Fault injection (chaos testing)
    # ------------------------------------------------------------------
    def arm_faults(self, spec, seed: int = 0) -> FaultInjector:
        """Arm a fault spec across the whole stack (service, scorer, pool).

        ``spec`` is a spec string, an iterable of
        :class:`~repro.serving.faults.FaultRule` records, or an existing
        injector (re-armed fresh).  Returns the live injector so tests
        can inspect firing counts.  An engine built over this service
        picks the injector up through ``service.faults``.
        """
        injector = FaultInjector.from_spec(spec, seed=seed)
        self.faults = injector
        self.scorer.faults = injector
        if self.plane is not None:
            self.plane.set_faults(injector)
        return injector

    def disarm_faults(self) -> None:
        """Release hanging threads and return the stack to dormancy."""
        if self.faults is not None:
            self.faults.disarm()
        self.faults = None
        self.scorer.faults = None
        if self.plane is not None:
            self.plane.set_faults(None)

    def _on_registry_event(self, event: str, version: str) -> None:
        """Registry lifecycle hook: prune a dead version's shared weights."""
        if event == "deactivate" and self.plane is not None:
            self.plane.on_deactivate(version)

    def _routing_kernel_view(self) -> dict[str, int]:
        """``kernel.routing.*``: the network's CSR search-effort counters.

        Empty (contributing nothing to the export) until something
        actually routed through the CSR kernel — the view must never
        *build* a kernel.
        """
        kernel = csr_if_built(self.network)
        return kernel.profile_counters() if kernel is not None else {}

    def _scoring_kernel_view(self) -> dict[str, object]:
        """``kernel.scoring.*``: the active snapshot's fused forward profile.

        Empty when no model is active or nothing is compiled (e.g. the
        module backend is active).
        """
        active = self.registry.snapshot()
        compiled = None if active is None else compiled_if_cached(active.model)
        return {} if compiled is None else compiled.profile_counters()

    # ------------------------------------------------------------------
    # Stage 1: admission
    # ------------------------------------------------------------------
    def admit(self, request: RankRequest,
              snapshot: ActiveModel | None | object = _CURRENT
              ) -> QueryState:
        """Open a :class:`QueryState` and route it to a model snapshot.

        ``snapshot`` lets a batch caller take one registry snapshot for
        every unsplit request (so a concurrent hot-swap cannot divide a
        batch across versions).  Without it each request takes the
        registry's current snapshot.  Pinned and split-routed requests
        resolve their own snapshot regardless.
        """
        state = QueryState(request=request)
        if request.deadline_ms is not None:
            state.deadline_ms = request.deadline_ms
        else:
            state.deadline_ms = self.resilience.deadline_ms
        trace = state.trace = self.tracer.maybe_start()
        if self.faults is not None:
            try:
                self.faults.fire("admit")
            except ReproError as exc:
                state.error = str(exc)
                return state
        if not self._validate(state):
            return state
        try:
            state.config = self._candidate_config(request)
        except ValueError as exc:  # hostile per-request k override
            state.error = str(exc)
            return state
        version = request.model_version
        if version is None and self.config.traffic_split is not None:
            version = assign_split(request, self.config.traffic_split)
        split_began = time.perf_counter() if trace is not None else 0.0
        try:
            if version is not None:
                state.active = self.registry.resolve(version)
                state.split = version
            elif snapshot is _CURRENT:
                state.active = self.registry.snapshot()
            else:
                state.active = snapshot
        except ServingError as exc:  # unpublished pin / stale split target
            state.error = str(exc)
        if trace is not None:
            end = time.perf_counter()
            trace.add("split_assign", split_began, end, split=state.split)
            trace.add("admit", trace.started, end)
        return state

    def _validate(self, state: QueryState) -> bool:
        """Refuse malformed requests at the front door.

        An unknown endpoint or a non-positive ``k`` can never be served
        — not even by the shortest-path fallback — so it terminates
        here with a structured ``invalid_request`` error instead of
        tripping the fallback or leaking a ``KeyError`` from the CSR
        kernel deeper in the stack.
        """
        request = state.request
        problem = None
        if not isinstance(request.source, int) \
                or not self.network.has_vertex(request.source):
            problem = f"unknown source vertex {request.source!r}"
        elif not isinstance(request.target, int) \
                or not self.network.has_vertex(request.target):
            problem = f"unknown target vertex {request.target!r}"
        elif request.k is not None and request.k < 1:
            problem = f"k must be >= 1, got {request.k!r}"
        elif request.deadline_ms is not None \
                and not 0.0 < request.deadline_ms < math.inf:
            problem = (f"deadline_ms must be finite and > 0, "
                       f"got {request.deadline_ms!r}")
        if problem is None:
            return True
        state.error = problem
        state.error_code = "invalid_request"
        self.res_counters["invalid_requests"].inc()
        return False

    def _expire(self, state: QueryState) -> None:
        """Terminate a state whose deadline budget ran out."""
        state.error = (f"deadline of {state.deadline_ms:g} ms exceeded "
                       f"before a response was ready")
        state.error_code = "deadline_exceeded"
        state.active = None
        self.res_counters["deadline_exceeded"].inc()

    def _candidate_config(self, request: RankRequest) -> TrainingDataConfig:
        base = self.config.candidates
        if request.k is None or request.k == base.k:
            return base
        return replace(base, k=request.k,
                       examine_limit=max(base.examine_limit, request.k))

    # ------------------------------------------------------------------
    # Stage 2: candidate generation (cache-aware)
    # ------------------------------------------------------------------
    def prepare(self, state: QueryState) -> QueryState:
        """Fill in candidate paths; skipped for doomed/fallback states.

        Candidate enumeration is wasted work when only the shortest-path
        fallback can answer, so a state with no snapshot passes through.
        """
        if state.error is not None or state.active is None:
            return state
        if state.expired():
            self._expire(state)
            return state
        trace = state.trace
        began = time.perf_counter() if trace is not None else 0.0
        try:
            if self.faults is not None:
                self.faults.fire("prepare")
            state.paths, state.cache_hit = self._candidates(state)
        except ReproError as exc:
            state.error = str(exc)
        if trace is not None:
            state.prepared_at = time.perf_counter()
            trace.add("candidates", began, state.prepared_at,
                      cache_hit=state.cache_hit, paths=len(state.paths))
        return state

    def _candidates(self, state: QueryState) -> tuple[list[Path], bool]:
        request, config = state.request, state.config
        cache = self.candidate_cache
        cached = cache.lookup(request.source, request.target, config)
        if cached is not None:
            return cached, True
        paths = self._generate_candidates(state)
        cache.store(request.source, request.target, config, paths)
        return paths, False

    def _generate_candidates(self, state: QueryState) -> list[Path]:
        """Cold candidate generation, offloaded to the pool when possible.

        A pool failure falls back to inline generation — the plane is a
        throughput optimisation, never an availability risk.
        :class:`~repro.errors.NoPathError` from a worker is the *query's*
        answer and propagates exactly as inline.
        """
        request, config = state.request, state.config
        if self.plane is not None:
            try:
                return self.plane.candidates_for(state)
            except ExecError:
                pass
        return generate_candidates(self.network, request.source,
                                   request.target, config)

    # ------------------------------------------------------------------
    # Stage 3: coalesced scoring
    # ------------------------------------------------------------------
    def score_states(self, states: Sequence[QueryState]) -> None:
        """Score every scorable state, one coalesced pass per group.

        States are grouped per model snapshot — A/B splits and hot-swaps
        can both mix within one batch — and each group is scored
        atomically through the service's :class:`BatchingScorer`.  A
        batch failure degrades *only* the affected requests: each member
        is retried individually, and only the ones that still fail fall
        back to the shortest path.
        """
        groups: dict[int, list[QueryState]] = {}
        for state in states:
            if state.error is None and state.expired():
                self._expire(state)
                continue
            if state.scorable:
                groups.setdefault(state.active.generation, []).append(state)
        if len(groups) > 1 and self.plane is not None:
            # Pooled group execution: the groups are independent by
            # construction (disjoint states, thread-safe scorer, caches
            # and breaker), and each thread merely waits on pool
            # tickets, so the workers' forward passes overlap instead of
            # serialising behind the largest group.
            threads = [
                threading.Thread(target=self._score_states_group,
                                 args=(members,),
                                 name=f"score-group-{generation}")
                for generation, members in groups.items()
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        else:
            for members in groups.values():
                self._score_states_group(members)

    def scores_cached(self, state: QueryState) -> bool:
        """Whether the score cache holds every candidate of a scorable
        ``state`` under its snapshot's version (read-only)."""
        cache = self.score_cache
        return cache is not None \
            and cache.covers(state.active.version, state.paths)

    def _score_states_group(self, members: list[QueryState]) -> None:
        """Score one snapshot's group end to end (thread-safe)."""
        if self.breaker is not None and not self.breaker.allow():
            # The breaker is tripped (or out of half-open probe slots):
            # route the group straight to the shortest-path fallback
            # without touching the scorer.
            for state in members:
                state.active = None
                state.degraded = "circuit breaker open"
                state.error_code = "breaker_open"
            self.res_counters["breaker_degraded"].inc(len(members))
            return
        active = members[0].active
        traced = [state for state in members if state.trace is not None]
        began = time.perf_counter() if traced else 0.0
        scored = self._score_group(members, active)
        if scored is not None:
            for state, scores in zip(members, scored):
                state.scores = scores.tolist()
        if traced:
            end = time.perf_counter()
            group_paths = sum(len(state.paths) for state in members)
            for state in traced:
                if state.prepared_at is not None:
                    # Time parked between candidate generation and
                    # this group's scoring pass (deadline batching).
                    state.trace.add("flush_wait", state.prepared_at,
                                    began)
                state.trace.add("score", began, end,
                                group_requests=len(members),
                                group_paths=group_paths)

    def _score_group(self, members: Sequence[QueryState],
                     active: ActiveModel):
        """One group's scoring attempt: retry, breaker accounting, faults.

        Transient :class:`ReproError` failures (including injected ones)
        are retried up to ``retry_attempts`` times with deterministic
        jittered exponential backoff — but never past the tightest
        member deadline.  The final outcome is recorded on the breaker
        (group latency included, so a latency SLO can trip it), and a
        terminal failure falls back to per-request isolation via
        :meth:`_score_individually`.
        """
        began = time.perf_counter()
        attempt = 0
        model = active.model
        if self.plane is not None:
            # Swap in the pool-dispatching proxy: BatchingScorer still
            # runs dedup/caching/chunking in this process, but each
            # chunk's forward pass executes on a worker, bounded by the
            # group's tightest member deadline.  A plane failure here
            # (segment publish) just keeps the inline model.
            try:
                model = self.plane.scoring_proxy(
                    active, deadline_ms=tightest_remaining_ms(members))
            except ExecError:
                model = active.model
        while True:
            try:
                if self.faults is not None:
                    self.faults.fire("score")
                scored = self.scorer.score_many(
                    model, [state.paths for state in members],
                    active.version)
            except ReproError:
                if attempt < self.resilience.retry_attempts:
                    delay_s = retry_backoff(
                        attempt + 1, self.resilience,
                        key=active.generation)
                    budget = [state.remaining_ms() for state in members]
                    tightest = min((ms for ms in budget if ms is not None),
                                   default=None)
                    if tightest is None or delay_s * 1000.0 < tightest:
                        attempt += 1
                        self.res_counters["retries"].inc()
                        if delay_s > 0.0:
                            time.sleep(delay_s)
                        continue
                if self.breaker is not None:
                    self.breaker.record_failure()
                self._score_individually(members)
                return None
            else:
                if attempt:
                    self.res_counters["retry_successes"].inc()
                if self.breaker is not None:
                    self.breaker.record_success(
                        (time.perf_counter() - began) * 1000.0)
                return scored

    def _score_individually(self, states: Sequence[QueryState]) -> None:
        """Retry a failed batch one request at a time.

        Isolates the poison request(s): a path that breaks the forward
        pass takes down its own request only, and everything else in the
        flush still gets model-served.
        """
        for state in states:
            active = state.active
            try:
                scores = self.scorer.score_paths(active.model, state.paths,
                                                 active.version)
            except ReproError as exc:
                state.active = None
                state.degraded = str(exc)
            else:
                state.scores = scores.tolist()

    # ------------------------------------------------------------------
    # Stage 4: response assembly
    # ------------------------------------------------------------------
    def assemble(self, state: QueryState, record: bool = True,
                 completed: float | None = None) -> RankResponse:
        """Terminate a state into a :class:`RankResponse` (+ metrics).

        ``completed`` (a ``perf_counter`` value) lets a deferred caller
        pin the latency clock to when the pipeline actually finished the
        request, rather than when the caller got around to collecting
        the response.
        """
        end = completed if completed is not None else time.perf_counter()
        elapsed_ms = (end - state.started) * 1000.0
        trace = state.trace
        assemble_began = time.perf_counter() if trace is not None else 0.0
        if state.error is None and state.expired(end):
            self._expire(state)
        if self.faults is not None and state.error is None:
            try:
                self.faults.fire("assemble")
            except ReproError as exc:
                state.error = str(exc)
        if state.error is not None:
            response = self._error_response(state, state.error, elapsed_ms)
        elif state.active is None:
            response = self._fallback_response(state, elapsed_ms)
        else:
            response = self._model_response(state, elapsed_ms)
        if record:
            self._record(state, response)
        if trace is not None:
            trace.add("assemble", assemble_began, time.perf_counter())
            if record:
                request = state.request
                self.tracer.finish(
                    trace, response.latency_ms,
                    request=f"{request.source}->{request.target}",
                    request_id=request.request_id,
                    served_by=response.served_by,
                    cache_hit=response.candidate_cache_hit,
                    split=state.split)
        state.response = response
        return response

    def _record(self, state: QueryState, response: RankResponse) -> None:
        """Count one answered request, service-wide and per split.

        Each request counter is bumped before its latency histogram
        observes, and every reader takes the histogram first, so a
        latency count never runs ahead of its request count.
        """
        outcome = _OUTCOME_COUNTERS[response.served_by]
        latency_ms = response.latency_ms
        self.counters["requests"].inc()
        self.counters[outcome].inc()
        self.latency.observe(latency_ms)
        if state.split is not None:
            latency, counters = self._book(
                self._split_books, state.split,
                lambda: (Histogram("split.latency"),
                         {name: Counter(f"split.{name}")
                          for name in _SERVING_COUNTERS}))
            counters["requests"].inc()
            counters[outcome].inc()
            latency.observe(latency_ms)

    # ------------------------------------------------------------------
    # Serving facade
    # ------------------------------------------------------------------
    def rank(self, request: RankRequest) -> RankResponse:
        """Answer one query; never raises for per-request failures."""
        return self.rank_batch([request])[0]

    def rank_batch(self, requests: Sequence[RankRequest]) -> list[RankResponse]:
        """Answer many queries with one coalesced pass per model snapshot.

        The default snapshot is taken once for the whole batch, so a
        concurrent hot-swap cannot split the unsplit portion of a batch
        across versions.
        """
        if not requests:
            return []
        snapshot = self.registry.snapshot()
        states = [self.admit(request, snapshot=snapshot)
                  for request in requests]
        for state in states:
            self.prepare(state)
        self.score_states(states)
        return [self.assemble(state) for state in states]

    def warm_up(self, requests: Sequence[RankRequest]) -> int:
        """Replay a recorded query mix through the caches, off the books.

        Runs the candidate and scoring stages for every distinct request
        so the candidate caches (and score caches, when enabled) are hot
        before live traffic arrives — the deploy-time cure for the cold
        p95 cliff.  Nothing is recorded in the latency/counter metrics;
        returns the number of requests replayed.
        """
        seen: set[tuple] = set()
        states = []
        for request in requests:
            key = (request.source, request.target, request.k,
                   request.model_version)
            if key in seen:
                continue
            seen.add(key)
            states.append(self.admit(request))
        for state in states:
            self.prepare(state)
        self.score_states(states)
        for state in states:
            self.assemble(state, record=False)
        return len(states)

    def _model_response(self, state: QueryState,
                        elapsed_ms: float) -> RankResponse:
        ranked = rank_paths(state.paths, state.scores)
        results = tuple(
            RankedPath(path=path, score=score, position=position)
            for position, (path, score) in enumerate(ranked, start=1)
        )
        return RankResponse(request=state.request, results=results,
                            served_by="model",
                            model_version=state.active.version,
                            candidate_cache_hit=state.cache_hit,
                            latency_ms=elapsed_ms)

    def _fallback_response(self, state: QueryState,
                           elapsed_ms: float) -> RankResponse:
        request, cause = state.request, state.degraded
        if not self.config.fallback_to_shortest:
            reason = cause or "no active model"
            return self._error_response(
                state, f"{reason} (fallback disabled)", elapsed_ms)
        try:
            path = shortest_path(self.network, request.source, request.target)
        except ReproError as exc:
            return self._error_response(state, str(exc), elapsed_ms)
        results = (RankedPath(path=path, score=0.0, position=1),)
        return RankResponse(request=request, results=results,
                            served_by="fallback", model_version=None,
                            candidate_cache_hit=state.cache_hit,
                            latency_ms=elapsed_ms, error=cause,
                            error_code=state.error_code)

    def _error_response(self, state: QueryState, error: str,
                        elapsed_ms: float) -> RankResponse:
        retry_after = None
        if state.error_code in ("deadline_exceeded", "shed"):
            retry_after = self.resilience.retry_after_ms
        return RankResponse(request=state.request, results=(),
                            served_by="error", model_version=None,
                            candidate_cache_hit=state.cache_hit,
                            latency_ms=elapsed_ms, error=error,
                            error_code=state.error_code,
                            retry_after_ms=retry_after)

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear down the execution plane (idempotent; inline no-op).

        Stops the worker processes and unlinks every shared-memory
        segment this service published.  The service itself keeps
        answering afterwards — stages fall back to their inline paths —
        so closing is safe mid-traffic.
        """
        plane, self.plane = self.plane, None
        if plane is not None:
            plane.close()

    def __enter__(self) -> "RankingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def activate(self, version: str) -> ActiveModel:
        """Hot-swap to ``version`` (in-flight batches keep their snapshot)."""
        active = self.registry.activate(version)
        self.counters["hot_swaps"].inc()
        return active

    def stats(self) -> dict[str, object]:
        """Everything ``serve --json`` and the load benchmark report."""
        scoring = self._scoring_view()
        scoring["max_batch_size"] = self.config.max_batch_size
        resilience = self.resilience
        # Exact count and mean; quantiles interpolated within one log2
        # bucket.  Read before the counters (see _record).
        latency = self.latency.summary()
        active = self.registry.snapshot()
        result: dict[str, object] = {
            "active_version": active.version if active else None,
            "counters": _values(self.counters),
            "latency": {"count": latency["count"],
                        "mean_ms": latency["mean"],
                        "p50_ms": latency["p50"],
                        "p95_ms": latency["p95"]},
            "splits": self._split_view(),
            "candidate_cache": self._candidate_cache_view(),
            "score_cache": self._score_cache_view(),
            "scoring": scoring,
            "resilience": {
                "config": {
                    "deadline_ms": resilience.deadline_ms,
                    "max_queue": resilience.max_queue,
                    "shed_policy": resilience.shed_policy,
                    "breaker_enabled": resilience.breaker_enabled,
                    "retry_attempts": resilience.retry_attempts,
                },
                "counters": _values(self.res_counters),
                **self._resilience_view(),
            },
        }
        if self.config.execution != "inline":
            # Only when the plane is non-dormant: existing consumers pin
            # the shape of the default stats payload.
            execution: dict[str, object] = {"mode": self.config.execution}
            if self.plane is not None:
                execution["workers"] = self.config.workers
                execution.update(self.plane.stats())
            result["execution"] = execution
        if self.tracer.enabled:
            # Only when tracing is on: the section is meaningless (all
            # zeros) otherwise, and existing consumers pin the shape of
            # the default stats payload.
            result["trace"] = self.tracer.as_dict()
        quotas = ({} if self.score_cache is None
                  else self.score_cache.quota_stats())
        if quotas:
            result["score_cache_splits"] = quotas
        return result
