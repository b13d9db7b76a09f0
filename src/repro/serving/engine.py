"""The concurrent serving front door: deadline-batched cross-request coalescing.

:class:`~repro.serving.service.RankingService.rank_batch` only realises
the fused kernel's batched-scoring win when one caller hands it a
pre-assembled batch; independent concurrent queries each pay the
small-batch path.  :class:`ServingEngine` closes that gap: callers
:meth:`submit` single requests from any thread and block on a
:class:`EngineTicket`, while inside the engine

* **worker threads** run the admission and candidate-generation stages
  of the shared pipeline (cache-aware, so hotspot traffic is cheap),
* a **deadline flusher** coalesces prepared requests into one scoring
  flush, scored per model-snapshot group — triggered the moment the
  service's ``max_batch_size`` paths accumulate, or ``flush_deadline_ms``
  after the oldest pending request arrived, whichever comes first, and
* a third rule: **a request that needs no forward pass never waits**.
  When the score cache already holds every one of its paths, the
  worker that prepared it answers it through the same scoring stage a
  flush runs, without parking it.  Such an answer is not a flush: it
  fires no ``engine.flush`` fault and feeds no ``engine.occupancy.*``
  histogram.

Because both front doors drive the *same* stage methods and the masked
recurrence makes batched scores identical to sequential ones, an
engine's responses are element-wise identical to the synchronous
service's on the same request stream — coalescing buys throughput, not
different answers.

The optional warm-up hook replays a recorded hotspot mix through the
candidate/score caches before the engine reports ready, so a freshly
deployed engine doesn't serve its first minutes off a cold cache.

Usage::

    engine = ServingEngine(service, concurrency=8, flush_deadline_ms=2.0,
                           warmup=yesterdays_hotspot_mix)
    with engine:                      # ready once warm-up finished
        responses = engine.rank_batch(requests)   # or submit()/wait()
    print(engine.stats()["engine"]["occupancy"])
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from collections.abc import Sequence

from repro.errors import DeadlineExceeded, ServingError
from repro.obs.metrics import Histogram
from repro.serving.pipeline import QueryState
from repro.serving.service import RankingService, RankRequest, RankResponse

__all__ = ["EngineTicket", "ServingEngine"]

#: Slack added on top of a request's deadline budget when
#: :meth:`EngineTicket.result` derives its wait timeout: the pipeline's
#: own assembly-time expiry check needs a moment to produce the
#: structured deadline response, and the waiter should collect *that*
#: rather than racing it.
RESULT_GRACE_S = 0.5


class EngineTicket:
    """Handle for one in-flight engine request.

    ``wait`` blocks until the pipeline finished the request and returns
    its :class:`RankResponse`; ``done`` polls without blocking.

    Response assembly (ranking + metrics) runs lazily in the first
    thread that calls :meth:`wait` rather than in the scoring thread —
    the flush's critical path stays short, so the next batch starts
    scoring while the woken clients assemble their own responses in
    parallel.
    """

    __slots__ = ("request", "submitted", "completed", "state", "_service",
                 "_event", "_finalize")

    def __init__(self, request: RankRequest, service) -> None:
        self.request = request
        self.submitted = time.perf_counter()
        self.completed: float | None = None
        self.state: QueryState | None = None
        self._service = service
        self._event = threading.Event()
        self._finalize = threading.Lock()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> RankResponse:
        if not self._event.wait(timeout):
            raise ServingError(
                f"request {self.request.source}->{self.request.target} "
                f"not answered within {timeout}s"
            )
        return self._collect()

    def result(self, timeout: float | None = None) -> RankResponse:
        """Deadline-aware :meth:`wait`: never blocks past the budget.

        With no explicit ``timeout`` the wait is derived from the
        request's deadline (``request.deadline_ms``, falling back to the
        service's ``resilience.deadline_ms``) plus a small grace so the
        pipeline's own structured deadline response wins the race when
        it can.  Raises :class:`~repro.errors.DeadlineExceeded` —
        carrying the service's ``retry_after_ms`` hint — if the response
        is still not ready; a request with no deadline anywhere blocks
        like :meth:`wait`.
        """
        if timeout is None:
            budget_ms = self.request.deadline_ms
            if budget_ms is None:
                budget_ms = self._service.resilience.deadline_ms
            # A non-finite budget never reaches the pipeline (admission
            # answers it with invalid_request), and no timeout derives
            # from it: Event.wait(inf) raises OverflowError.
            if budget_ms is not None and math.isfinite(budget_ms):
                elapsed = time.perf_counter() - self.submitted
                timeout = max(0.0, budget_ms / 1000.0 - elapsed) \
                    + RESULT_GRACE_S
        if not self._event.wait(timeout):
            raise DeadlineExceeded(
                f"request {self.request.source}->{self.request.target} "
                f"not answered within {timeout:g}s",
                retry_after_ms=self._service.resilience.retry_after_ms)
        return self._collect()

    def _collect(self) -> RankResponse:
        state = self.state
        if state.response is None:
            with self._finalize:
                if state.response is None:
                    # Latency is pinned to when the pipeline finished,
                    # not to when this waiter drained the ticket.
                    self._service.assemble(state, completed=self.completed)
        return state.response

    def _resolve(self) -> None:
        self.completed = time.perf_counter()
        self._event.set()


class ServingEngine:
    """Concurrent front door over a :class:`RankingService` pipeline."""

    def __init__(self, service: RankingService, *,
                 concurrency: int = 4,
                 flush_deadline_ms: float = 2.0,
                 warmup: Sequence[RankRequest] | None = None,
                 start: bool = True) -> None:
        self.service = service
        self.concurrency = concurrency
        self.flush_deadline_ms = flush_deadline_ms
        if self.concurrency < 1:
            raise ServingError(
                f"concurrency must be >= 1, got {self.concurrency}")
        # The flusher sleeps on Condition.wait, which rejects timeouts
        # above threading.TIMEOUT_MAX (and NaN never orders): a value it
        # cannot sleep on would kill the flusher thread and strand every
        # parked request.
        if isinstance(flush_deadline_ms, bool) \
                or not isinstance(flush_deadline_ms, (int, float)) \
                or not 0.0 <= flush_deadline_ms \
                <= threading.TIMEOUT_MAX * 1000.0:
            raise ServingError(
                f"flush_deadline_ms must be a number of ms in "
                f"[0, {threading.TIMEOUT_MAX * 1000.0:g}], "
                f"got {flush_deadline_ms!r}")
        self._warmup = list(warmup) if warmup else []
        self.warmed_up = 0
        # Flush occupancy: requests and paths per scoring flush.  A
        # histogram's exact count and sum give flushes and totals.  The
        # histograms belong to this engine: a rebuilt engine over the
        # same service starts at zero and takes the engine.occupancy.*
        # section over.
        self._flush_sizes = (Histogram("engine.occupancy.requests"),
                             Histogram("engine.occupancy.paths"))
        service.metrics.register_callback("engine.occupancy", self.occupancy)

        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)   # inbox activity
        self._flush = threading.Condition(self._lock)  # pending activity
        self._inbox: deque[EngineTicket] = deque()
        #: Every accepted-but-unanswered ticket: close() fails whatever
        #: is left here rather than abandoning its waiters.
        self._outstanding: set[EngineTicket] = set()
        self._pending: list[EngineTicket] = []
        self._pending_paths = 0
        self._pending_since: float | None = None
        self._stopping = False
        self._workers: list[threading.Thread] = []
        self._flusher_thread: threading.Thread | None = None
        self._ready = threading.Event()
        if start:
            self.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServingEngine":
        """Warm the caches, spin up the workers, and report ready."""
        if self._workers:
            return self
        if self._stopping:
            raise ServingError("engine already closed; build a new one")
        if self._warmup:
            self.warmed_up = self.service.warm_up(self._warmup)
        for number in range(self.concurrency):
            thread = threading.Thread(target=self._worker, daemon=True,
                                      name=f"serving-worker-{number}")
            thread.start()
            self._workers.append(thread)
        self._flusher_thread = threading.Thread(
            target=self._flusher, daemon=True, name="serving-flusher")
        self._flusher_thread.start()
        self._ready.set()
        return self

    @property
    def ready(self) -> bool:
        """Whether warm-up completed and the workers are accepting load."""
        return self._ready.is_set() and not self._stopping

    def wait_ready(self, timeout: float | None = None) -> bool:
        return self._ready.wait(timeout)

    def close(self, timeout: float | None = None) -> None:
        """Stop accepting requests, drain in-flight ones, join threads.

        Everything submitted before the close is still answered: the
        workers finish the inbox first, then whatever they parked for
        scoring is flushed here before the flusher is released.  Any
        ticket that is *still* unanswered at the end — a thread stuck in
        a hung scorer, a straggler the ``timeout``-bounded joins gave up
        on — is failed with a structured ``engine_closed`` error instead
        of being abandoned, so no waiter ever blocks on a closed engine.
        ``timeout`` bounds the total time spent joining threads
        (``None`` = wait for a clean drain).
        """
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
            self._work.notify_all()
        give_up_at = None if timeout is None \
            else time.perf_counter() + timeout
        joined = True
        for thread in self._workers:
            thread.join(self._join_budget(give_up_at))
            joined = joined and not thread.is_alive()
        # Workers are gone; anything they left pending is flushed now so
        # no ticket can be stranded between worker exit and flusher exit.
        with self._lock:
            batch = self._take_pending_locked()
            self._flush.notify_all()
        if batch and joined:
            self._score_batch(batch)
        if self._flusher_thread is not None:
            self._flusher_thread.join(self._join_budget(give_up_at))
            if not self._flusher_thread.is_alive():
                self._flusher_thread = None
        # Fail whatever is still unanswered: inbox stragglers behind a
        # stuck worker, claims a hung thread never released, and (when
        # the joins timed out) the batch we chose not to score above.
        with self._lock:
            leftovers = [ticket for ticket in self._outstanding
                         if not ticket.done]
        for ticket in leftovers:
            self._fail_ticket(
                ticket, "engine closed before the request was answered",
                "engine_closed")
        self._workers.clear()
        self._ready.clear()

    @staticmethod
    def _join_budget(give_up_at: float | None) -> float | None:
        if give_up_at is None:
            return None
        return max(0.0, give_up_at - time.perf_counter())

    def __enter__(self) -> "ServingEngine":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Front door
    # ------------------------------------------------------------------
    def submit(self, request: RankRequest) -> EngineTicket:
        """Enqueue one request; returns immediately with its ticket.

        When the service's ``resilience.max_queue`` bound is set and the
        inbox is full, the request is *shed* instead of enqueued:
        ``shed_policy="reject"`` answers the ticket immediately with a
        structured ``shed`` error (plus a ``retry_after_ms`` hint),
        ``"degrade"`` answers it with the shortest-path fallback
        computed in the caller's thread — bounded work either way, and
        the queue never grows past its bound.
        """
        service = self.service
        if service.faults is not None:
            # Before any bookkeeping: an injected ingress error must not
            # leave a half-submitted ticket behind.
            service.faults.fire("engine.submit")
        ticket = EngineTicket(request, service)
        shed = False
        with self._lock:
            if self._stopping:
                raise ServingError("engine is closed; no new requests")
            if not self._workers:
                raise ServingError("engine not started; call start() first")
            max_queue = service.resilience.max_queue
            if max_queue > 0 and len(self._inbox) >= max_queue:
                shed = True
            else:
                self._inbox.append(ticket)
                self._outstanding.add(ticket)
                self._work.notify()
        if shed:
            self._shed_ticket(ticket)
        return ticket

    def _shed_ticket(self, ticket: EngineTicket) -> None:
        """Answer a shed request immediately under the configured policy."""
        service = self.service
        state = QueryState(request=ticket.request)
        state.started = ticket.submitted
        state.error_code = "shed"
        if service.resilience.shed_policy == "degrade":
            # Degrade-to-shortest-path: no model work is queued, the
            # fallback runs in the caller's thread at assembly.
            state.degraded = "admission queue full; degraded to fallback"
            service.res_counters["shed_degraded"].inc()
        else:
            state.error = ("admission queue full; request shed "
                           "(retry after backoff)")
            service.res_counters["shed_rejected"].inc()
        ticket.state = state
        ticket._resolve()

    def rank(self, request: RankRequest,
             timeout: float | None = None) -> RankResponse:
        """Submit one request and block for its response."""
        return self.submit(request).wait(timeout)

    def rank_batch(self, requests: Sequence[RankRequest],
                   timeout: float | None = None) -> list[RankResponse]:
        """Submit many requests at once and block for all responses.

        Unlike the synchronous facade there is no single-batch scoring
        guarantee — the engine re-batches by its own deadline/size
        policy — but responses come back in request order and are
        element-wise identical to the synchronous path.
        """
        tickets = [self.submit(request) for request in requests]
        return [ticket.wait(timeout) for ticket in tickets]

    # ------------------------------------------------------------------
    # Pipeline threads
    # ------------------------------------------------------------------
    #: How many inbox entries one worker wake may claim.  Draining a
    #: chunk amortises the condvar/lock round-trips that otherwise
    #: dominate cache-hit traffic (admission + cached candidates cost
    #: microseconds), while the bound keeps a cold burst spread across
    #: workers instead of serialised behind one.
    ADMISSION_CHUNK = 8

    def _worker(self) -> None:
        service = self.service
        while True:
            with self._lock:
                while not self._inbox and not self._stopping:
                    self._work.wait()
                if not self._inbox:  # stopping and drained
                    return
                count = min(len(self._inbox), self.ADMISSION_CHUNK)
                claimed = [self._inbox.popleft() for _ in range(count)]
                if self._inbox:
                    self._work.notify()  # more work: wake a sibling
            prepared: list[EngineTicket] = []
            cached: list[EngineTicket] = []
            for ticket in claimed:
                state = self._prepare_ticket(ticket)
                if not state.scorable:
                    # Nothing to score (error, no model, or an empty
                    # candidate set): answer immediately.
                    service.assemble(state)
                    self._resolve_ticket(ticket)
                elif service.scores_cached(state):
                    cached.append(ticket)
                else:
                    prepared.append(ticket)
            if cached:
                # No forward pass to share, so the flush's stage answers
                # these now; an entry evicted since the probe is just a
                # miss that score_states scores here.
                self._score_states([t.state for t in cached], flush=False)
                for ticket in cached:
                    self._resolve_ticket(ticket)
            if not prepared:
                continue
            batch: list[EngineTicket] = []
            with self._lock:
                self._pending.extend(prepared)
                self._pending_paths += sum(len(ticket.state.paths)
                                           for ticket in prepared)
                if self._pending_since is None:
                    self._pending_since = time.perf_counter()
                    self._flush.notify()  # wake the deadline clock
                if self._pending_paths >= service.config.max_batch_size:
                    batch = self._take_pending_locked()
            if batch:
                self._score_batch(batch)

    def _flusher(self) -> None:
        deadline_s = self.flush_deadline_ms / 1000.0
        while True:
            batch: list[EngineTicket] = []
            with self._lock:
                if self._stopping and self._pending_since is None:
                    # close() flushes the last stragglers itself after
                    # joining the workers, so exiting here is safe.
                    return
                if self._pending_since is None:
                    self._flush.wait()
                    continue
                remaining = self._pending_since + deadline_s \
                    - time.perf_counter()
                if remaining > 0 and not self._stopping:
                    self._flush.wait(timeout=remaining)
                    continue
                batch = self._take_pending_locked()
            if batch:
                self._score_batch(batch)

    def _prepare_ticket(self, ticket: EngineTicket) -> QueryState:
        """Admission + candidate stages, guaranteed not to raise.

        The stage methods already convert per-request library failures
        into error states; the catch-alls here are the engine's last
        line of defence — an unexpected exception must cost one request
        an error response, never a worker thread (a dead worker strands
        every ticket it claimed, and its waiters block forever).
        """
        service = self.service
        picked_up = time.perf_counter()
        try:
            state = service.admit(ticket.request)
        except Exception as exc:  # noqa: BLE001 - deliberate backstop
            state = QueryState(request=ticket.request)
            state.error = str(exc)
        # Queue wait counts toward latency: the clock starts at
        # submission, not at pickup.
        state.started = ticket.submitted
        if state.trace is not None:
            # Rebase the trace origin to the submit time (spans store
            # absolute starts, so already-recorded admit offsets shift
            # consistently) and book the inbox wait as its own stage.
            state.trace.started = ticket.submitted
            state.trace.add("queue_wait", ticket.submitted, picked_up)
        ticket.state = state
        if state.error is None:
            try:
                service.prepare(state)
            except Exception as exc:  # noqa: BLE001 - deliberate backstop
                state.error = str(exc)
        return state

    def _take_pending_locked(self) -> list[EngineTicket]:
        batch, self._pending = self._pending, []
        self._pending_paths = 0
        self._pending_since = None
        return batch

    def _resolve_ticket(self, ticket: EngineTicket) -> None:
        with self._lock:
            self._outstanding.discard(ticket)
        ticket._resolve()

    def _fail_ticket(self, ticket: EngineTicket, message: str,
                     code: str) -> None:
        """Force-terminate an unanswered ticket with a structured error."""
        state = ticket.state
        if state is None:
            state = QueryState(request=ticket.request)
            state.started = ticket.submitted
            ticket.state = state
        if state.response is None:
            state.error = message
            state.error_code = code
            state.active = None
            state.scores = None
        self._resolve_ticket(ticket)

    def _score_states(self, states: list[QueryState], *,
                      flush: bool) -> None:
        """``score_states`` behind the engine's backstop (never raises);
        only a ``flush`` fires ``engine.flush``, a cache answer does not."""
        try:
            if flush and self.service.faults is not None:
                self.service.faults.fire("engine.flush")
            self.service.score_states(states)
        except Exception as exc:  # noqa: BLE001 - deliberate backstop
            # score_states degrades ReproError per request already (and
            # per snapshot group, so one version's poison batch never
            # touches another's); an unexpected exception degrades
            # the whole batch to the fallback instead of killing the
            # scoring thread (which would strand these tickets and stop
            # deadline flushes).
            for state in states:
                if state.scores is None and state.error is None:
                    state.active = None
                    state.degraded = str(exc)

    def _score_batch(self, batch: list[EngineTicket]) -> None:
        states = [ticket.state for ticket in batch]
        self._score_states(states, flush=True)
        requests, paths = self._flush_sizes
        requests.observe(len(states))
        paths.observe(sum(len(state.paths) for state in states))
        # Assembly is deferred to each ticket's waiter (see
        # EngineTicket.wait): releasing the batch here keeps the flush
        # critical path at "score + wake", so the next flush can start
        # while the woken clients build their responses.
        for ticket in batch:
            self._resolve_ticket(ticket)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def occupancy(self) -> dict[str, object]:
        """Mean requests / paths per scoring flush.

        Above 1 request per flush is the direct evidence that
        cross-request coalescing engaged: independent queries shared a
        fused forward pass instead of each paying the small-batch path.
        """
        requests, paths = (histogram.summary()
                           for histogram in self._flush_sizes)
        return {
            "flushes": requests["count"],
            "requests_coalesced": int(requests["sum"]),
            "mean_requests_per_flush": requests["mean"],
            "mean_paths_per_flush": paths["mean"],
        }

    def stats(self) -> dict[str, object]:
        """The underlying service's stats plus the engine's own gauges."""
        stats = self.service.stats()
        with self._lock:
            queue_depth = len(self._inbox)
            outstanding = len(self._outstanding)
        stats["engine"] = {
            "concurrency": self.concurrency,
            "flush_deadline_ms": self.flush_deadline_ms,
            "max_batch_size": self.service.config.max_batch_size,
            "ready": self.ready,
            "warmed_up": self.warmed_up,
            "queue_depth": queue_depth,
            "outstanding": outstanding,
            "occupancy": self.occupancy(),
        }
        return stats
