"""The concurrent serving front door: cross-request coalescing by group commit.

Every batch of queries enters the serving stack here.  Scoring one
request alone runs the fused kernel at batch ``k``; :class:`ServingEngine`
coalesces independent queries into shared forward passes: callers
:meth:`submit` single requests from any thread and block on a
:class:`EngineTicket`, while

* **admission runs in the caller's thread**, once per request, and
  **a request that needs no worker never enters the inbox**: one that
  admission refuses is answered at once, and one whose candidate-cache
  entry already holds scores for the active model version goes through
  the candidate and scoring stages right there, so its ticket resolves
  before :meth:`submit` returns.  Such an answer is not a flush: it
  feeds no ``engine.occupancy.*`` histogram, records no ``queue_wait``
  span, and ``max_queue`` never sheds it;
* **worker threads** run the candidate-generation stage of the shared
  pipeline for every other request and park the prepared states, and
* **the engine flushes when the previous flush ends** (group commit): a
  worker that parks states starts a flush unless one is running, then
  keeps taking *everything* pending and scoring it, one coalesced pass
  per model-snapshot group, until nothing is pending.  Requests
  prepared while a flush runs form the next batch, so batches grow
  exactly when scoring is the bottleneck and a lone request never
  waits for a timer.  ``ServingConfig.max_batch_size`` only caps the
  paths of one forward pass within a flush.

Each ticket is answered once, by the thread that finishes it: ``submit``
for refused, hot or shed requests, a worker for one with nothing to
score, the flushing worker after scoring, and :meth:`close` for
leftovers.  That thread claims the ticket under the engine lock by
stamping ``completed``, assembles the response, then wakes the waiter;
a thread that finds the ticket already claimed leaves it alone.

The engine drives the *same* stage methods as ``service.rank``, and
those stages never raise, so no engine thread dies of a request and
both answer a failure alike.  Batched scores equal sequential ones to
float32 rounding, so an engine's responses equal ``service.rank``'s to
that rounding — coalescing buys throughput, not different answers.

The optional warm-up hook replays a recorded hotspot mix through the
candidate cache and its score memos before the constructor returns, so
a freshly deployed engine doesn't serve its first minutes off a cold
cache.  A constructed engine is a started engine.

Usage::

    with ServingEngine(service, concurrency=8,
                       warmup=yesterdays_hotspot_mix) as engine:
        responses = engine.rank_batch(requests)   # or submit()/wait()
    print(engine.stats()["engine"]["occupancy"])
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Sequence

from repro.errors import ServingError
from repro.obs.metrics import Histogram
from repro.serving.pipeline import QueryState
from repro.serving.service import RankingService, RankRequest, RankResponse

__all__ = ["EngineTicket", "ServingEngine"]


class EngineTicket:
    """Handle for one in-flight engine request.

    ``wait`` blocks until the engine answered the request and returns
    its :class:`RankResponse`; ``done`` polls without blocking.
    ``state`` is the request's admitted :class:`QueryState`, and
    ``completed`` the ``perf_counter`` instant the pipeline finished it,
    stamped before assembly so assembling is not counted as latency.
    """

    __slots__ = ("request", "submitted", "completed", "state", "_event")

    def __init__(self, request: RankRequest) -> None:
        self.request = request
        self.submitted = time.perf_counter()
        self.completed: float | None = None
        self.state: QueryState | None = None
        self._event = threading.Event()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> RankResponse:
        if not self._event.wait(timeout):
            raise ServingError(
                f"request {self.request.source}->{self.request.target} "
                f"not answered within {timeout}s"
            )
        return self.state.response


class ServingEngine:
    """Concurrent front door over a :class:`RankingService` pipeline."""

    def __init__(self, service: RankingService, *,
                 concurrency: int = 4,
                 warmup: Sequence[RankRequest] | None = None) -> None:
        self.service = service
        self.concurrency = concurrency
        if self.concurrency < 1:
            raise ServingError(
                f"concurrency must be >= 1, got {self.concurrency}")
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
        self._inbox: deque[EngineTicket] = deque()
        #: Every accepted-but-unanswered ticket: close() fails whatever
        #: is left here rather than abandoning its waiters.
        self._outstanding: set[EngineTicket] = set()
        #: Prepared tickets the next flush takes.
        self._pending: list[EngineTicket] = []
        #: Whether a worker is flushing; it drains ``_pending`` before
        #: it clears this.
        self._flushing = False
        self._stopping = False
        # Warm the caches, then spin up the workers.
        if warmup:
            self.warmed_up = service.warm_up(warmup)
        self._workers = [
            threading.Thread(target=self._worker, daemon=True,
                             name=f"serving-worker-{number}")
            for number in range(concurrency)]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def ready(self) -> bool:
        """Whether the engine is accepting load (until :meth:`close`)."""
        return not self._stopping

    def close(self, timeout: float | None = None) -> None:
        """Stop accepting requests, drain in-flight ones, join the workers.

        Everything submitted before the close is still answered: the
        workers finish the inbox first, and a worker that parks states
        flushes them (or leaves them to the flush running) before it
        exits.  Any ticket that is *still* unanswered at the end — behind
        a worker stuck in a stage that the ``timeout``-bounded joins gave
        up on — is failed with a structured ``engine_closed`` error
        instead of being abandoned, so no waiter ever blocks on a closed
        engine; the stuck worker answers none of them when it comes
        back.  ``timeout`` bounds the total time spent joining threads
        (``None`` = wait for a clean drain); a worker still alive when
        it runs out stays in ``_workers``, so it can be joined later.
        """
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
            self._work.notify_all()
        give_up_at = None if timeout is None \
            else time.perf_counter() + timeout
        for thread in self._workers:
            thread.join(self._join_budget(give_up_at))
        with self._lock:
            leftovers = list(self._outstanding)
            self._inbox.clear()
            self._pending.clear()
        self._answer(leftovers, closed=True)
        self._workers = [thread for thread in self._workers
                         if thread.is_alive()]

    @staticmethod
    def _join_budget(give_up_at: float | None) -> float | None:
        if give_up_at is None:
            return None
        return max(0.0, give_up_at - time.perf_counter())

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Front door
    # ------------------------------------------------------------------
    def submit(self, request: RankRequest) -> EngineTicket:
        """Admit one request in the caller's thread; returns its ticket.

        A request that admission refuses, or whose scores are memoised
        for the active version (see the module docstring), is answered
        before this returns.  Every other one enters the inbox with its
        admitted state.  When the service's ``config.max_queue`` bound
        is set and that many requests already wait for a worker or for
        the next flush, such a request is *shed* instead:
        ``shed_policy="reject"`` answers the ticket immediately with a
        structured ``shed`` error (plus a ``retry_after_ms`` hint),
        ``"degrade"`` answers it with the shortest-path fallback
        computed in the caller's thread — bounded work either way, and
        the queue never grows past its bound.
        """
        service = self.service
        if self._stopping:
            raise ServingError("engine is closed; no new requests")
        ticket = EngineTicket(request)
        state = ticket.state = service.admit(request)
        # Queue wait counts toward latency and the deadline: the clock
        # starts at submission.
        state.started = ticket.submitted
        if state.trace is not None:
            state.trace.started = ticket.submitted
        if state.hot:
            service.score_states([service.prepare(state)])
        elif state.error is None and self._enqueue(ticket):
            return ticket
        # No other thread has seen this ticket, so stamping it needs no
        # claim under the lock.
        ticket.completed = time.perf_counter()
        self._release(ticket)
        return ticket

    def _enqueue(self, ticket: EngineTicket) -> bool:
        """Park a ticket in the inbox; ``False``, after shedding its
        state, when the full queue cannot take it.

        The queue is everything waiting: the inbox *and* the prepared
        tickets parked for the next flush.  While a flush holds the
        scorer the free workers keep moving the inbox into ``_pending``,
        so bounding the inbox alone would let the backlog grow there.
        """
        service = self.service
        with self._lock:
            if self._stopping:
                raise ServingError("engine is closed; no new requests")
            max_queue = service.config.max_queue
            waiting = len(self._inbox) + len(self._pending)
            if not 0 < max_queue <= waiting:
                self._inbox.append(ticket)
                self._outstanding.add(ticket)
                self._work.notify()
                return True
        self._shed(ticket.state)
        return False

    def _shed(self, state: QueryState) -> None:
        """Answer an admitted state under the configured shed policy."""
        service = self.service
        state.error_code = "shed"
        if service.config.shed_policy == "degrade":
            # Degrade-to-shortest-path: no model work is queued, the
            # fallback runs in the caller's thread at assembly.
            state.active = None
            state.degraded = "admission queue full; degraded to fallback"
            service.res_counters["shed_degraded"].inc()
        else:
            state.error = ("admission queue full; request shed "
                           "(retry after backoff)")
            service.res_counters["shed_rejected"].inc()

    def rank(self, request: RankRequest,
             timeout: float | None = None) -> RankResponse:
        """Submit one request and block for its response."""
        return self.submit(request).wait(timeout)

    def rank_batch(self, requests: Sequence[RankRequest],
                   timeout: float | None = None) -> list[RankResponse]:
        """Submit many requests at once and block for all responses.

        The engine coalesces them into as few flushes as scoring allows;
        responses come back in request order and equal
        ``service.rank``'s, scores to float32 rounding.
        """
        tickets = [self.submit(request) for request in requests]
        return [ticket.wait(timeout) for ticket in tickets]

    # ------------------------------------------------------------------
    # Pipeline threads
    # ------------------------------------------------------------------
    #: How many inbox entries one worker wake may claim.  Requests whose
    #: scores are memoised never reach the inbox, but cached candidates
    #: awaiting a forward pass (after a hot-swap, or with memoisation
    #: off) cost microseconds to prepare: draining a chunk amortises the
    #: condvar/lock round-trips that would otherwise dominate them,
    #: while the bound keeps a cold burst spread across workers instead
    #: of serialised behind one.
    ADMISSION_CHUNK = 8

    def _worker(self) -> None:
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
            for ticket in claimed:
                if self._prepare_ticket(ticket).scorable:
                    prepared.append(ticket)
                else:
                    # Nothing to score (error, no model, or an empty
                    # candidate set): answer immediately.
                    self._answer([ticket])
            if prepared:
                self._flush(prepared)

    def _prepare_ticket(self, ticket: EngineTicket) -> QueryState:
        """The candidate stage (which never raises: a dead worker would
        strand every ticket it claimed), after booking the inbox wait."""
        state = ticket.state
        if state.trace is not None:
            state.trace.add("queue_wait", ticket.submitted,
                            time.perf_counter())
        return self.service.prepare(state)

    def _flush(self, prepared: list[EngineTicket]) -> None:
        """Park prepared tickets, then flush unless a flush is running.

        The flushing worker takes everything pending, scores and answers
        it, and repeats until nothing is pending.  Finding ``_pending``
        empty and clearing ``_flushing`` happen under one hold of the
        lock, so a parked ticket is always taken by the running flush or
        starts one itself.
        """
        with self._lock:
            self._pending += prepared
            if self._flushing:
                return
            self._flushing = True
        while True:
            with self._lock:
                batch, self._pending = self._pending, []
                self._flushing = bool(batch)
            if not batch:
                return
            states = [ticket.state for ticket in batch]
            self.service.score_states(states)
            requests, paths = self._flush_sizes
            requests.observe(len(states))
            paths.observe(sum(len(state.paths) for state in states))
            self._answer(batch)

    def _answer(self, tickets: Sequence[EngineTicket],
                closed: bool = False) -> None:
        """Claim the tickets under the engine lock, then release them.

        Claiming stamps ``completed``, so each ticket is claimed once;
        one another thread already claimed is skipped, and nothing is
        assembled or recorded twice.  ``closed`` fails the claimed
        tickets with a structured ``engine_closed`` error.
        """
        with self._lock:
            now = time.perf_counter()
            owned = [ticket for ticket in tickets if ticket.completed is None]
            for ticket in owned:
                ticket.completed = now
                self._outstanding.discard(ticket)
        for ticket in owned:
            if closed:
                state = ticket.state
                state.error = "engine closed before the request was answered"
                state.error_code = "engine_closed"
                state.active = None
            self._release(ticket)

    def _release(self, ticket: EngineTicket) -> None:
        """Assemble a claimed ticket's response, with latency pinned to
        the claim, then wake its waiter."""
        self.service.assemble(ticket.state, completed=ticket.completed)
        ticket._event.set()

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
            queue_depth = len(self._inbox) + len(self._pending)
            outstanding = len(self._outstanding)
        stats["engine"] = {
            "concurrency": self.concurrency,
            "max_batch_size": self.service.config.max_batch_size,
            "ready": self.ready,
            "warmed_up": self.warmed_up,
            "queue_depth": queue_depth,
            "outstanding": outstanding,
            "occupancy": self.occupancy(),
        }
        return stats
