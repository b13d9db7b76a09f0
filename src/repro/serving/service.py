"""The `RankingService` facade: online query answering over one network.

Ties the serving pieces together: candidate generation behind a
:class:`CandidateCache` whose entries also memoise their scores per
model version, scoring behind a :class:`BatchingScorer`, the model
itself behind a :class:`ModelRegistry` snapshot, and per-request
latency / outcome instrumentation.  When no model is active (or
scoring fails with a library error) the service degrades gracefully to
the shortest path instead of failing the request.

Internally the service is a **staged pipeline** over
:class:`~repro.serving.pipeline.QueryState` records:

* :meth:`RankingService.admit` — validate the request, then resolve the
  candidate configuration, the registry's active model snapshot and
  the cached candidate entry, if there is one;
* :meth:`RankingService.prepare` — cache-aware candidate generation on
  the full network (one enumeration per signature in flight);
* :meth:`RankingService.score_states` — coalesced scoring of many
  states, grouped per model snapshot (a flush can straddle a hot-swap),
  reading and writing the entries' score memos, with per-request
  degradation when a batch fails;
* :meth:`RankingService.assemble` — ranking, fallback, and metrics.

Batches enter through the :class:`~repro.serving.engine.ServingEngine`,
which drives these stages from worker threads with deadline-based
flushing; :meth:`RankingService.rank` runs them for one request.  The
first three stages never raise — an exception becomes the request's
``error`` or a fallback degradation — so both drivers answer a failure
alike.  Every stage reads the service's one candidate cache, one scorer
and one circuit breaker directly.

**Execution plane.**  ``ServingConfig.execution`` selects where cold
candidate generation runs: ``"inline"`` (the default — in the calling
thread) or ``"processes"`` (an :class:`~repro.exec.plane.ExecutionPlane`
of worker processes, each with its own routing kernel, sidestepping
the GIL).  A pool failure falls back to the inline
generator, so the plane never lowers availability.  Scoring runs in
this process in both modes.  See ``docs/parallelism.md``.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from repro.core.ranker import generate_candidates, rank_paths
from repro.errors import ExecError, ReproError
from repro.graph.csr import csr_if_built
from repro.graph.network import RoadNetwork
from repro.graph.path import Path
from repro.graph.shortest_path import shortest_path
from repro.nn.fused import compiled_if_cached
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.trace import Tracer
from repro.ranking.training_data import TrainingDataConfig
from repro.serving.batching import BatchingScorer
from repro.serving.cache import CandidateCache, CandidateEntry
from repro.serving.pipeline import QueryState
from repro.serving.registry import ActiveModel, ModelRegistry
from repro.serving.resilience import (
    RETRY_AFTER_MS,
    SHED_POLICIES,
    CircuitBreaker,
)

__all__ = ["EXECUTION_MODES", "ServingConfig", "RankRequest", "RankedPath",
           "RankResponse", "RankingService"]

#: Execution-plane modes: ``"inline"`` runs every stage in the calling
#: thread (the historical behaviour, and the default); ``"processes"``
#: offloads cold candidate generation to a pool of worker processes
#: (:mod:`repro.exec`).
EXECUTION_MODES = ("inline", "processes")

#: Request outcome counters, as ``serving.<name>``.
_SERVING_COUNTERS = ("requests", "model_served", "fallback_served", "failed",
                     "hot_swaps")

#: Which outcome counter a response's ``served_by`` lands in.
_OUTCOME_COUNTERS = {"model": "model_served", "fallback": "fallback_served",
                     "error": "failed"}

#: How often each resilience mechanism fired, as ``resilience.<name>``:
#: requests shed per policy, expired by their deadline, or routed to the
#: fallback by an open breaker; admissions refused by validation.
_RESILIENCE_COUNTERS = ("shed_rejected", "shed_degraded", "deadline_exceeded",
                        "breaker_degraded", "invalid_requests")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _values(counters: dict[str, Counter]) -> dict[str, int]:
    return {name: counter.value for name, counter in counters.items()}


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of one :class:`RankingService` instance.

    ``score_cache_size=0`` disables score memoisation (every request
    pays the forward pass; mainly for benchmarks isolating scoring
    work); any other value keeps scores on the candidate-cache entries,
    so on at most ``candidate_cache_size`` of them.  ``max_batch_size``
    caps the paths of one forward pass; it does not decide when the
    concurrent engine flushes.
    """

    candidates: TrainingDataConfig = field(default_factory=TrainingDataConfig)
    candidate_cache_size: int = 1024
    score_cache_size: int = 8192
    max_batch_size: int = 64
    fallback_to_shortest: bool = True
    #: Fraction of requests carrying a per-stage trace (0 disables
    #: tracing entirely; 1.0 traces every request).  Sampled traces feed
    #: the ``serving.stage.*`` histograms and the slow-request exemplar
    #: buffer in ``stats()["trace"]``.
    trace_sample: float = 0.0
    #: Default per-request deadline budget in milliseconds (``None``
    #: disables; ``RankRequest.deadline_ms`` overrides per request).
    deadline_ms: float | None = None
    #: Engine admission-queue bound (requests waiting for a worker or
    #: for the next flush); 0 = unbounded.
    max_queue: int = 0
    #: What to do with a request the full queue cannot admit (see
    #: :data:`~repro.serving.resilience.SHED_POLICIES`).
    shed_policy: str = "reject"
    #: Execution plane (see :data:`EXECUTION_MODES`).  The default
    #: ``"inline"`` keeps the plane fully dormant: no worker processes,
    #: and stage behaviour bit-identical to a service built before the
    #: plane existed.
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


@dataclass(frozen=True)
class RankRequest:
    """One live (source, destination) query.

    ``k`` overrides the service's configured candidate-set size for this
    request only (it participates in the candidate-cache key).
    ``deadline_ms`` caps this request's end-to-end budget (overriding
    ``ServingConfig.deadline_ms``); when it expires the
    request terminates with a structured ``deadline_exceeded`` error
    instead of occupying later pipeline stages.
    """

    source: int
    target: int
    k: int | None = None
    request_id: int | None = None
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
        self.candidate_cache = CandidateCache(self.config.candidate_cache_size)
        self.memoise_scores = self.config.score_cache_size > 0
        self.scorer = BatchingScorer(self.config.max_batch_size)
        # The telemetry plane: every count the service keeps is an
        # instrument recorded once.  export() reads metrics in
        # creation order, so serving.latency is created before the
        # request counter it must never run ahead of (see _record).
        metrics = self.metrics = MetricsRegistry()
        self.latency = metrics.histogram("serving.latency")
        self.counters = {name: metrics.counter(f"serving.{name}")
                         for name in _SERVING_COUNTERS}
        self.res_counters = {name: metrics.counter(f"resilience.{name}")
                             for name in _RESILIENCE_COUNTERS}
        self.tracer = Tracer(sample=self.config.trace_sample, metrics=metrics)
        # Resilience plane: a circuit breaker over scoring-group outcomes.
        self.breaker = CircuitBreaker()
        # Execution plane: dormant unless asked for.  "processes" stands
        # up a warm worker pool.
        self.plane = None
        if self.config.execution == "processes":
            from repro.exec.plane import ExecutionPlane
            self.plane = ExecutionPlane(network, workers=self.config.workers,
                                        metrics=self.metrics)
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Publish the state kept outside the registry's instruments.

        Caches, the scorer, the breaker and kernels keep their own
        locked state; the registry pulls each through a callback at
        export time.
        Every callback that is also a ``stats()`` section is the same
        view function on both sides.
        """
        metrics = self.metrics
        metrics.register_callback("cache.candidate",
                                  self._candidate_cache_view)
        metrics.register_callback("cache.score", self._score_cache_view)
        metrics.register_callback("scoring", self._scoring_view)
        metrics.register_callback("kernel.routing", self._routing_kernel_view)
        metrics.register_callback("kernel.scoring", self._scoring_kernel_view)
        metrics.register_callback("resilience", self._resilience_view)
        if self.plane is not None:
            # exec.pool.* next to the exec.roundtrip_ms /
            # exec.overhead_ms / exec.occupancy histograms the pool
            # records directly into this registry.
            metrics.register_callback("exec", self.plane.stats)

    def _candidate_cache_view(self) -> dict[str, object]:
        return self.candidate_cache.stats.as_dict()

    def _score_cache_view(self) -> dict[str, object]:
        if not self.memoise_scores:
            return {"disabled": True}
        stats = self.candidate_cache.score_stats
        return {"hits": stats.hits, "misses": stats.misses,
                "hit_rate": stats.hit_rate}

    def _scoring_view(self) -> dict[str, int]:
        return self.scorer.as_dict()

    def _resilience_view(self) -> dict[str, object]:
        """``resilience.*`` beyond the counters: the breaker's state
        under ``resilience.breaker.*``."""
        return {"breaker": self.breaker.as_dict()}

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
    def admit(self, request: RankRequest) -> QueryState:
        """Open a :class:`QueryState` with the registry's current snapshot.

        Never raises: any failure (a registry snapshot that raises, a
        hostile ``k`` override) becomes the state's ``error``.
        """
        state = QueryState(request=request)
        try:
            if request.deadline_ms is not None:
                state.deadline_ms = request.deadline_ms
            else:
                state.deadline_ms = self.config.deadline_ms
            trace = state.trace = self.tracer.maybe_start()
            if self._validate(state):
                config = state.config = self._candidate_config(request)
                state.active = self.registry.snapshot()
                if state.active is not None:
                    state.entry = self.candidate_cache.probe(
                        request.source, request.target, config)
                if trace is not None:
                    trace.add("admit", trace.started, time.perf_counter())
        except Exception as exc:  # noqa: BLE001 - the per-request backstop
            state.error = str(exc)
        return state

    def _validate(self, state: QueryState) -> bool:
        """Refuse malformed requests at the front door.

        An unknown endpoint, a ``k`` that is not an integer >= 1 or a
        deadline that is not a finite positive number can never be
        served — not even by the shortest-path fallback — so it
        terminates here with a structured ``invalid_request`` error
        instead of tripping the fallback or leaking a ``KeyError`` from
        the CSR kernel deeper in the stack.  ``bool`` is an ``int`` to
        Python, but never a vertex, a count or a budget.
        """
        request = state.request
        problem = None
        if not _is_int(request.source) \
                or not self.network.has_vertex(request.source):
            problem = f"unknown source vertex {request.source!r}"
        elif not _is_int(request.target) \
                or not self.network.has_vertex(request.target):
            problem = f"unknown target vertex {request.target!r}"
        elif request.k is not None \
                and not (_is_int(request.k) and request.k >= 1):
            problem = f"k must be an integer >= 1, got {request.k!r}"
        elif request.deadline_ms is not None \
                and not (isinstance(request.deadline_ms, (int, float))
                         and not isinstance(request.deadline_ms, bool)
                         and 0.0 < request.deadline_ms < math.inf):
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
        Never raises: any failure (no path, a bug in the generator)
        becomes the state's ``error``.
        """
        if state.error is not None or state.active is None:
            return state
        if state.expired():
            self._expire(state)
            return state
        trace = state.trace
        began = time.perf_counter() if trace is not None else 0.0
        try:
            entry, state.cache_hit = self._candidates(state)
            state.entry, state.paths = entry, entry.paths
        except Exception as exc:  # noqa: BLE001 - the per-request backstop
            state.error = str(exc)
        if trace is not None:
            state.prepared_at = time.perf_counter()
            trace.add("candidates", began, state.prepared_at,
                      cache_hit=state.cache_hit, paths=len(state.paths))
        return state

    def _candidates(self, state: QueryState) -> tuple[CandidateEntry, bool]:
        if state.entry is not None:
            # Admission found it; the hit counts here, where it is used,
            # so a request shed or expired before this stage counts none.
            self.candidate_cache.count_hit()
            return state.entry, True
        request = state.request
        return self.candidate_cache.resolve(
            request.source, request.target, state.config,
            lambda: self._generate_candidates(state))

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

        States are grouped per model snapshot — an engine flush can
        straddle a hot-swap — and each group is scored atomically
        through the service's :class:`BatchingScorer`.  A library
        failure degrades *only* the affected requests: each member is
        scored again on its own, and only the ones that still fail fall
        back to the shortest path.  Never raises: any other exception
        degrades the states it left unscored to the fallback.
        """
        try:
            groups: dict[int, list[QueryState]] = {}
            for state in states:
                if state.error is None and state.expired():
                    self._expire(state)
                    continue
                if state.scorable:
                    groups.setdefault(state.active.generation,
                                      []).append(state)
            for members in groups.values():
                self._score_states_group(members)
        except Exception as exc:  # noqa: BLE001 - the per-request backstop
            for state in states:
                if state.scorable and state.scores is None:
                    state.active = None
                    state.degraded = str(exc)

    def _score_states_group(self, members: list[QueryState]) -> None:
        """Score one snapshot's group end to end (thread-safe)."""
        if not self.breaker.allow():
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
                state.scores = scores
        if traced:
            end = time.perf_counter()
            group_paths = sum(len(state.paths) for state in members)
            for state in traced:
                if state.prepared_at is not None:
                    # Time parked between candidate generation and
                    # this group's scoring pass: the wait for the
                    # running flush to end.
                    state.trace.add("flush_wait", state.prepared_at,
                                    began)
                state.trace.add("score", began, end,
                                group_requests=len(members),
                                group_paths=group_paths)

    def _score_group(self, members: Sequence[QueryState],
                     active: ActiveModel):
        """One group the breaker allowed, with one breaker outcome.

        A group that fails with a :class:`ReproError` falls back to
        per-request isolation via :meth:`_score_individually`, which
        runs every member's forward pass again, so a one-shot fault is
        still model-served.  The breaker records exactly one outcome
        per group: an exception of any other type counts as a failure
        before it reaches :meth:`score_states`' backstop, so it never
        leaves a half-open probe slot claimed.
        """
        try:
            scored = self._scores(members, active)
        except ReproError:
            self.breaker.record_failure()
            self._score_individually(members)
            return None
        except BaseException:
            self.breaker.record_failure()
            raise
        self.breaker.record_success()
        return scored

    def _scores(self, members: Sequence[QueryState],
                active: ActiveModel) -> list[list[float]]:
        """One scoring attempt: each member's scores are its entry's memo
        when tagged ``active``'s version, else one coalesced pass of
        ``active``'s model over the rest, written back to their entries."""
        version = active.version
        scores: list = [None] * len(members)
        if self.memoise_scores:
            scores = [None if state.entry is None
                      else state.entry.scores_for(version)
                      for state in members]
            hits = sum(len(state.paths)
                       for state, found in zip(members, scores)
                       if found is not None)
            self.candidate_cache.count_scores(
                hits, sum(len(state.paths) for state in members) - hits)
        todo = [i for i, found in enumerate(scores) if found is None]
        if todo:
            fresh = self.scorer.score_many(
                active.model, [members[i].paths for i in todo])
            for i, array in zip(todo, fresh):
                scores[i] = values = array.tolist()
                entry = members[i].entry
                if self.memoise_scores and entry is not None:
                    entry.scored = (version, values)
        return scores

    def _score_individually(self, states: Sequence[QueryState]) -> None:
        """Score a failed group again, one request at a time.

        Isolates the poison request(s): a path that breaks the forward
        pass takes down its own request only, and everything else in the
        flush still gets model-served.
        """
        for state in states:
            try:
                state.scores = self._scores([state], state.active)[0]
            except ReproError as exc:
                state.active = None
                state.degraded = str(exc)

    # ------------------------------------------------------------------
    # Stage 4: response assembly
    # ------------------------------------------------------------------
    def assemble(self, state: QueryState, record: bool = True,
                 completed: float | None = None) -> RankResponse:
        """Terminate a state into a :class:`RankResponse` (+ metrics).

        ``completed`` (a ``perf_counter`` value) lets a deferred caller
        pin the latency clock to when the pipeline actually finished the
        request, rather than when the caller got around to collecting
        the response.  Never raises: any failure (the fallback's
        shortest path, ranking) becomes the request's error
        response, recorded once like any other, and a failure while
        recording or tracing the response leaves the response as it is.
        """
        end = completed if completed is not None else time.perf_counter()
        elapsed_ms = (end - state.started) * 1000.0
        trace = state.trace
        assemble_began = time.perf_counter() if trace is not None else 0.0
        if state.error is None and state.expired(end):
            self._expire(state)
        try:
            if state.error is not None:
                response = self._error_response(state, state.error,
                                                elapsed_ms)
            elif state.active is None:
                response = self._fallback_response(state, elapsed_ms)
            else:
                response = self._model_response(state, elapsed_ms)
        except Exception as exc:  # noqa: BLE001 - the per-request backstop
            state.error = str(exc)
            response = self._error_response(state, state.error, elapsed_ms)
        try:
            if record:
                self._record(response)
            if trace is not None:
                trace.add("assemble", assemble_began, time.perf_counter())
                if record:
                    request = state.request
                    self.tracer.finish(
                        trace, response.latency_ms,
                        request=f"{request.source}->{request.target}",
                        request_id=request.request_id,
                        served_by=response.served_by,
                        cache_hit=response.candidate_cache_hit)
        except Exception:  # noqa: BLE001 - bookkeeping never costs an answer
            pass
        state.response = response
        return response

    def _record(self, response: RankResponse) -> None:
        """Count one answered request.

        Each request counter is bumped before its latency histogram
        observes, and every reader takes the histogram first, so a
        latency count never runs ahead of its request count.
        """
        self.counters["requests"].inc()
        self.counters[_OUTCOME_COUNTERS[response.served_by]].inc()
        self.latency.observe(response.latency_ms)

    # ------------------------------------------------------------------
    # Serving facade
    # ------------------------------------------------------------------
    def rank(self, request: RankRequest) -> RankResponse:
        """Answer one query; never raises for per-request failures.

        Batches go through :class:`~repro.serving.engine.ServingEngine`,
        which coalesces concurrent requests into shared forward passes.
        """
        state = self.prepare(self.admit(request))
        self.score_states([state])
        return self.assemble(state)

    def warm_up(self, requests: Sequence[RankRequest]) -> int:
        """Replay a recorded query mix through the caches, off the books.

        Runs the candidate and scoring stages for every distinct request
        so the candidate cache (and its score memos, when enabled) is hot
        before live traffic arrives — the deploy-time cure for the cold
        p95 cliff.  Deploy-time work, not requests: no deadline, no
        response, nothing recorded in the latency/counter metrics.
        Returns the number of requests replayed.
        """
        seen: set[tuple] = set()
        states = []
        for request in requests:
            key = (request.source, request.target, request.k)
            if key in seen:
                continue
            seen.add(key)
            state = self.admit(request)
            state.deadline_ms = None
            states.append(self.prepare(state))
        self.score_states(states)
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
        path = shortest_path(self.network, request.source, request.target)
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
            retry_after = RETRY_AFTER_MS
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

        Stops the worker processes.  The service itself keeps answering
        afterwards — candidate generation falls back to its inline path
        — so closing is safe mid-traffic.
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
            "candidate_cache": self._candidate_cache_view(),
            "score_cache": self._score_cache_view(),
            "scoring": scoring,
            "resilience": {
                "config": {
                    "deadline_ms": self.config.deadline_ms,
                    "max_queue": self.config.max_queue,
                    "shed_policy": self.config.shed_policy,
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
        return result
