"""Spawn-safe worker-process pool running the existing kernels.

Workers are *warm*: at spawn each one receives the network by pickle
and builds its own routing kernel (:func:`~repro.graph.csr.csr_for`)
before it reports ready, so the first real job pays no setup.

The wire protocol keeps payloads tiny: a candidates job ships
``(source, target, config)`` and returns bare vertex-id tuples (never
:class:`Path` objects, which drag the whole network through pickle);
an analytics job ships a tile's plain ids and returns plain lists.

**No queue is ever shared between two workers.**  Each worker slot
owns a private job queue and a private result queue drained by a
dedicated parent thread.  This is a survival property, not a style
choice: a worker SIGKILLed while holding a shared queue's write lock
would wedge every sibling — observed reliably on a single-core host,
where the parent often preempts a worker between finishing a ``put``
and releasing the lock.  With per-slot queues a kill can only corrupt
state the respawn throws away.

Failure semantics are the point, not an afterthought:

- Every job has a :class:`PoolTicket`; :meth:`PoolTicket.wait` enforces
  the *waiter-side* deadline, so a hung worker can never hang a request
  — the ticket raises :class:`~repro.errors.ExecError` and the pool
  kills and respawns the suspect worker.
- A monitor thread detects worker death (crash, OOM-kill,
  :meth:`WorkerPool.kill_worker`), fails that worker's in-flight
  tickets immediately, and respawns the slot.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
from time import perf_counter

from repro.errors import ExecError, NoPathError

__all__ = ["PoolTicket", "WorkerPool"]

#: Seconds the monitor sleeps between liveness sweeps.
_MONITOR_INTERVAL_S = 0.02


def _worker_main(index: int, network, inqueue, outqueue) -> None:
    """Worker process entry point (module-level: spawn pickles by name)."""
    try:
        from repro.analytics.tiling import run_tile_payload
        from repro.core.ranker import generate_candidates
        from repro.graph.csr import csr_for

        csr_for(network)
        outqueue.put(("ready", index, None, 0.0))
    except BaseException as exc:  # noqa: BLE001 - report, then die
        outqueue.put(("init_error", index,
                      f"{type(exc).__name__}: {exc}", 0.0))
        return

    while True:
        job = inqueue.get()
        if job is None:
            return
        kind, job_id, payload = job
        began = perf_counter()
        try:
            if kind == "candidates":
                source, target, config = payload
                paths = generate_candidates(network, source, target, config)
                result = [path.vertices for path in paths]
            elif kind == "analytics":
                # One batch-analytics tile against the kernel built at
                # warmup; returns plain arrays/lists
                # (see repro.analytics.tiling for the wire format).
                result = run_tile_payload(network, payload)
            elif kind == "ping":
                result = "pong"
            else:
                raise ExecError(f"unknown job kind {kind!r}")
        except NoPathError as exc:
            elapsed = perf_counter() - began
            outqueue.put(("fail", job_id,
                          ("no_path", (exc.source, exc.target)), elapsed))
        except BaseException as exc:  # noqa: BLE001 - ship to parent
            elapsed = perf_counter() - began
            outqueue.put(("fail", job_id,
                          ("error", f"{type(exc).__name__}: {exc}"),
                          elapsed))
        else:
            elapsed = perf_counter() - began
            outqueue.put(("done", job_id, result, elapsed))


class PoolTicket:
    """Waitable handle for one dispatched job.

    ``wait`` is the hang seam: the *caller* bounds how long it will
    block, and on expiry the ticket fails with
    :class:`~repro.errors.ExecError` while the pool deals with the
    worker — a sick process can therefore delay a request by at most
    that bound, never hang it.
    """

    __slots__ = ("kind", "job_id", "worker_index", "inqueue",
                 "submitted_at", "compute_s", "_event", "_result", "_error",
                 "_pool")

    def __init__(self, kind: str, job_id: int, worker_index: int,
                 inqueue, pool: "WorkerPool") -> None:
        self.kind = kind
        self.job_id = job_id
        self.worker_index = worker_index
        #: The worker incarnation's job queue the job was written to.
        self.inqueue = inqueue
        self.submitted_at = perf_counter()
        self.compute_s = 0.0
        self._event = threading.Event()
        self._result = None
        self._error: BaseException | None = None
        self._pool = pool

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def _resolve(self, result, compute_s: float) -> None:
        self._result = result
        self.compute_s = compute_s
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def wait(self, timeout_s: float | None = None):
        """Block for the result; raise the job's error on failure.

        A timeout fails the ticket *and* reports the worker as suspect:
        the pool kills and respawns it, failing any other tickets it
        held — late results from the old incarnation are discarded.
        """
        if not self._event.wait(timeout_s):
            self._pool._note_timeout(self)
            # The kill above fails every outstanding ticket of that
            # worker, including this one; the event is set now.
            self._event.wait()
        if self._error is not None:
            raise self._error
        return self._result


class _Slot:
    """One worker slot: process + private queues + drainer thread."""

    __slots__ = ("index", "generation", "process", "inqueue", "results",
                 "drainer", "ready", "killed")

    def __init__(self, index: int, generation: int) -> None:
        self.index = index
        self.generation = generation
        self.process = None
        self.inqueue = None
        self.results = None
        self.drainer = None
        self.ready = threading.Event()
        #: The incarnation the pool itself killed (:meth:`kill_worker`);
        #: its death is not a failed warm-up.
        self.killed = None


class WorkerPool:
    """N warm spawn-context workers, each with its own routing kernel."""

    def __init__(self, network, *, workers: int, metrics=None,
                 ready_timeout_s: float = 60.0) -> None:
        if workers < 1:
            raise ExecError(f"workers must be >= 1, got {workers}")
        self.network = network
        self.workers = workers
        self._ctx = mp.get_context("spawn")
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._closed = False
        self._job_seq = 0
        self._inflight: dict[int, PoolTicket] = {}
        self._init_errors: list[str] = []
        # Counters (under self._lock).
        self.dispatched = 0
        self.completed = 0
        self.failed = 0
        self.respawns = 0
        self.timeouts = 0
        self._per_worker_jobs = [0] * workers
        self._outstanding = [0] * workers
        #: Consecutive deaths before the slot reported ready; a slot
        #: that cannot warm up (a kernel build or import failure in the
        #: child) stops being respawned after a few attempts instead of
        #: fork-bombing the host.  A warm-up that succeeds resets it,
        #: and a kill the pool delivered itself does not count.
        self._early_deaths = [0] * workers
        # Observability: dispatch->result roundtrip, worker-reported
        # compute time, their difference (IPC + queueing overhead), and
        # the busy-worker fraction sampled at each dispatch.
        if metrics is not None:
            self._roundtrip_hist = metrics.histogram("exec.roundtrip_ms")
            self._overhead_hist = metrics.histogram("exec.overhead_ms")
            self._occupancy_hist = metrics.histogram("exec.occupancy")
        else:
            self._roundtrip_hist = None
            self._overhead_hist = None
            self._occupancy_hist = None

        self._slots: list[_Slot] = [_Slot(index, 0)
                                    for index in range(workers)]
        for slot in self._slots:
            self._spawn(slot)
        self._monitor = threading.Thread(target=self._watch,
                                         name="exec-pool-monitor",
                                         daemon=True)
        self._monitor.start()
        self._ready_timeout_s = ready_timeout_s

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, slot: _Slot) -> None:
        if self._closed:
            return
        slot.inqueue = self._ctx.SimpleQueue()
        slot.results = self._ctx.SimpleQueue()
        slot.ready = threading.Event()
        slot.process = self._ctx.Process(
            target=_worker_main,
            args=(slot.index, self.network, slot.inqueue, slot.results),
            name=f"exec-worker-{slot.index}",
            daemon=True,
        )
        slot.process.start()
        slot.drainer = threading.Thread(
            target=self._drain, args=(slot, slot.results, slot.ready),
            name=f"exec-pool-drain-{slot.index}-g{slot.generation}",
            daemon=True)
        slot.drainer.start()

    def wait_ready(self, timeout_s: float | None = None) -> None:
        """Block until every worker finished warmup.

        Raises :class:`ExecError` when ``timeout_s`` runs out, or as soon
        as the monitor abandons a slot whose worker keeps dying during
        warmup: that slot will never be ready.  The slot's event is read
        afresh on each poll, since a respawn replaces it.
        """
        timeout_s = timeout_s if timeout_s is not None \
            else self._ready_timeout_s
        deadline = perf_counter() + timeout_s
        for slot in self._slots:
            while not slot.ready.wait(_MONITOR_INTERVAL_S):
                abandoned = slot.process is None
                if not abandoned and perf_counter() < deadline:
                    continue
                with self._lock:
                    errors = list(self._init_errors)
                if abandoned:
                    raise ExecError(
                        "worker pool failed to warm up: "
                        + "; ".join(dict.fromkeys(errors[-1:] + errors[:1])))
                detail = f": {errors[0]}" if errors else ""
                raise ExecError(
                    f"worker pool failed to warm up within {timeout_s:.1f}s"
                    + detail)

    def close(self, timeout_s: float = 5.0) -> None:
        """Stop workers and reclaim the slot threads (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            inflight = list(self._inflight.values())
            self._inflight.clear()
        # Stop the monitor *first* so it cannot respawn a worker we are
        # about to shut down.
        self._stop.set()
        self._monitor.join(timeout_s)
        for ticket in inflight:
            ticket._fail(ExecError("worker pool closed with the job "
                                   "in flight"))
        for slot in self._slots:
            try:
                slot.inqueue.put(None)
            except (OSError, ValueError):
                pass
        for slot in self._slots:
            process = slot.process
            if process is None:
                continue
            process.join(timeout_s)
            if process.is_alive():
                process.kill()
                process.join(timeout_s)
        for slot in self._slots:
            # Wake the drainer.  Safe only after a *clean* worker exit:
            # a worker killed while holding its queue's write lock
            # would block this put forever, so killed slots keep
            # their (daemon) drainer parked instead.
            if slot.process is not None and slot.process.exitcode == 0:
                try:
                    slot.results.put(None)
                except (OSError, ValueError):
                    continue
                slot.drainer.join(timeout_s)

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def submit(self, kind: str, payload) -> PoolTicket:
        """Dispatch one job to the least-loaded live worker."""
        with self._lock:
            if self._closed:
                raise ExecError("worker pool is closed")
            index = min(range(self.workers),
                        key=lambda i: self._outstanding[i])
            self._job_seq += 1
            job_id = self._job_seq
            inqueue = self._slots[index].inqueue
            ticket = PoolTicket(kind, job_id, index, inqueue, self)
            self._inflight[job_id] = ticket
            self._outstanding[index] += 1
            self.dispatched += 1
            if self._occupancy_hist is not None:
                busy = sum(1 for n in self._outstanding if n > 0)
                self._occupancy_hist.observe(busy / self.workers)
        try:
            inqueue.put((kind, job_id, payload))
        except (OSError, ValueError):
            # Pipe to a dead worker: fail fast; the monitor respawns.
            self._fail_ticket(job_id, ExecError(
                f"worker {index} unreachable at dispatch"))
        return ticket

    def run(self, kind: str, payload, timeout_s: float | None = None):
        return self.submit(kind, payload).wait(timeout_s)

    # ------------------------------------------------------------------
    # Chaos / failure handling
    # ------------------------------------------------------------------
    def kill_worker(self, index: int | None = None) -> int:
        """SIGKILL one worker (the busiest by default); returns its index.

        The monitor notices the death, fails its in-flight tickets with
        :class:`ExecError`, and respawns the slot — this helper only
        delivers the signal, so tests exercise the same recovery path a
        real crash takes.
        """
        with self._lock:
            if index is None:
                index = max(range(self.workers),
                            key=lambda i: self._outstanding[i])
            slot = self._slots[index]
            process = slot.process
            if process is None or not process.is_alive():
                return index
            slot.killed = process
        process.kill()
        return index

    def _note_timeout(self, ticket: PoolTicket) -> None:
        """A waiter gave up on ``ticket``: treat its worker as sick."""
        with self._lock:
            self.timeouts += 1
            still_inflight = ticket.job_id in self._inflight
        if not still_inflight:
            return
        self.kill_worker(ticket.worker_index)
        # Death detection runs on the monitor thread; make sure *this*
        # ticket resolves promptly even if the monitor is between polls.
        self._fail_ticket(ticket.job_id, ExecError(
            f"job {ticket.kind!r} timed out on worker "
            f"{ticket.worker_index}; worker killed and respawning"))

    def _fail_ticket(self, job_id: int, error: BaseException) -> None:
        with self._lock:
            ticket = self._inflight.pop(job_id, None)
            if ticket is None:
                return
            self._outstanding[ticket.worker_index] = max(
                0, self._outstanding[ticket.worker_index] - 1)
            self.failed += 1
        ticket._fail(error)

    # ------------------------------------------------------------------
    # Background threads
    # ------------------------------------------------------------------
    def _drain(self, slot: _Slot, results, ready: threading.Event) -> None:
        """Drain one worker incarnation's private result queue.

        Bound to the queue and ready event captured at spawn time: after
        a respawn the old thread keeps draining (or blocks on) the old
        queue and can never touch the new incarnation's state.
        """
        while True:
            try:
                message = results.get()
            except (OSError, EOFError, ValueError):
                return
            except Exception:  # noqa: BLE001 - torn pickle from a kill
                return
            if message is None:
                return
            kind, job_id, payload, compute_s = message
            if kind == "ready":
                ready.set()
                continue
            if kind == "init_error":
                with self._lock:
                    self._init_errors.append(payload)
                continue
            with self._lock:
                ticket = self._inflight.pop(job_id, None)
                if ticket is None:
                    continue  # late result from a killed incarnation
                self._outstanding[ticket.worker_index] = max(
                    0, self._outstanding[ticket.worker_index] - 1)
                self._per_worker_jobs[slot.index] += 1
                if kind == "done":
                    self.completed += 1
                else:
                    self.failed += 1
            roundtrip = perf_counter() - ticket.submitted_at
            if self._roundtrip_hist is not None:
                self._roundtrip_hist.observe(roundtrip * 1000.0)
                self._overhead_hist.observe(
                    max(0.0, roundtrip - compute_s) * 1000.0)
            if kind == "done":
                ticket._resolve(payload, compute_s)
            else:
                reason, detail = payload
                if reason == "no_path":
                    source, target = detail
                    ticket._fail(NoPathError(source, target))
                else:
                    ticket._fail(ExecError(
                        f"worker {slot.index} failed {ticket.kind!r} "
                        f"job: {detail}"))

    def _watch(self) -> None:
        while not self._stop.wait(_MONITOR_INTERVAL_S):
            for slot in self._slots:
                process = slot.process
                if process is None or process.is_alive():
                    continue
                if self._stop.is_set():
                    return
                exitcode = process.exitcode
                index = slot.index
                dead_queue = slot.inqueue
                with self._lock:
                    self.respawns += 1
                self._fail_orphans(dead_queue, index, exitcode)
                with self._lock:
                    self._outstanding[index] = 0
                    if slot.ready.is_set():
                        self._early_deaths[index] = 0
                    elif slot.killed is not process:
                        self._early_deaths[index] += 1
                    if self._early_deaths[index] >= 3:
                        self._init_errors.append(
                            f"worker {index} keeps dying during warmup "
                            f"(exit code {exitcode}); slot abandoned")
                        slot.process = None
                        continue
                    slot.generation += 1
                self._spawn(slot)
                # A submit that ran between the scan above and the queue
                # swap in _spawn wrote to the dead queue nobody reads.
                self._fail_orphans(dead_queue, index, exitcode)

    def _fail_orphans(self, dead_queue, index: int, exitcode) -> None:
        """Fail every in-flight job written to a dead worker's queue."""
        with self._lock:
            doomed = [job_id for job_id, ticket in self._inflight.items()
                      if ticket.inqueue is dead_queue]
        for job_id in doomed:
            self._fail_ticket(job_id, ExecError(
                f"worker {index} died (exit code {exitcode}) "
                "with the job in flight; respawning"))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, object]:
        with self._lock:
            outstanding = list(self._outstanding)
            return {
                "workers": self.workers,
                "alive": sum(1 for slot in self._slots
                             if slot.process is not None
                             and slot.process.is_alive()),
                "busy": sum(1 for n in outstanding if n > 0),
                "outstanding": sum(outstanding),
                "dispatched": self.dispatched,
                "completed": self.completed,
                "failed": self.failed,
                "timeouts": self.timeouts,
                "respawns": self.respawns,
                "per_worker_jobs": list(self._per_worker_jobs),
            }
