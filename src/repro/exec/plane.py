"""The execution-plane seam between serving and the worker pool.

:class:`ExecutionPlane` owns the shared hot-state (a
:class:`~repro.exec.shm.SharedArena` of CSR and weight segments) and
the :class:`~repro.exec.pool.WorkerPool`, and exposes exactly the two
operations the serving layer fans out:

- ``submit_candidates(state)`` / ``candidates_for(state)`` — cold
  candidate generation for a full-network query, returning real
  :class:`~repro.graph.path.Path` objects rebuilt from the workers'
  bare vertex tuples (paths are never pickled across the boundary —
  they drag the whole network with them).
- ``submit_score_group`` / :meth:`scoring_proxy` — scoring chunks on
  worker processes.  The proxy duck-types ``PathRank``'s
  ``score_paths`` surface, so :class:`BatchingScorer` (and with it
  dedup, the score cache, retries, breakers and per-request
  degradation) runs unmodified in the parent while only the padded
  forward passes leave the process.

Weight segments are published lazily per ``(version, weight_version)``
and unlinked when the serving layer reports a registry deactivation
(:meth:`on_deactivate`), so a hot-swap cannot leak superseded weights
into ``/dev/shm``.  CSR export happens once, after force-building the
ALT landmark tables owner-side — landmark selection is randomised, so
replicas must inherit the owner's tables for element-wise ranking
parity.
"""

from __future__ import annotations

import threading
from time import perf_counter

import numpy as np

from repro.errors import ExecError
from repro.exec.pool import WorkerPool
from repro.exec.shm import SharedArena
from repro.graph.csr import ALT_MIN_VERTICES, csr_for
from repro.graph.path import Path
from repro.nn.fused import compiled_for

__all__ = ["ExecutionPlane"]

#: Fallback waiter deadline when a request carries no budget.
DEFAULT_TIMEOUT_S = 30.0


class _PoolModel:
    """Model-shaped scoring proxy dispatching chunks to the pool.

    Quacks like ``PathRank`` for :meth:`BatchingScorer.score_many`:
    ``score_paths(chunk)`` and the fan-out hook
    ``score_paths_many(chunks)``.  Scores come back as float64 arrays
    bitwise-equal to the parent's fused kernel output (same buffers,
    same ``CompiledPathRank.score`` call, same arithmetic).
    """

    __slots__ = ("_plane", "_segment_name", "_key", "_deadline_at")

    def __init__(self, plane: "ExecutionPlane", segment_name: str,
                 key: str, deadline_ms: float | None) -> None:
        self._plane = plane
        self._segment_name = segment_name
        self._key = key
        self._deadline_at = (
            perf_counter() + deadline_ms / 1000.0
            if deadline_ms is not None else None)

    def _remaining_s(self) -> float:
        if self._deadline_at is None:
            return DEFAULT_TIMEOUT_S
        return max(0.0, self._deadline_at - perf_counter())

    def score_paths_many(self, chunks) -> list[np.ndarray]:
        tickets = [
            self._plane.pool.submit(
                "score",
                (self._segment_name, self._key,
                 [[path.vertices for path in chunk]]))
            for chunk in chunks
        ]
        results = []
        for ticket in tickets:
            scored = ticket.wait(self._remaining_s())
            results.append(np.asarray(scored[0], dtype=np.float64))
        return results

    def score_paths(self, paths) -> np.ndarray:
        return self.score_paths_many([paths])[0]


class ExecutionPlane:
    """Shared arena + worker pool behind ``execution="processes"``."""

    def __init__(self, network, *, workers: int, faults=None, metrics=None,
                 warm: bool = True,
                 ready_timeout_s: float = 120.0) -> None:
        self.network = network
        kernel = csr_for(network)
        if kernel.num_vertices >= ALT_MIN_VERTICES:
            # Build the landmark tables owner-side *before* export:
            # selection starts from a random vertex, and a replica
            # picking its own landmarks could break distance ties
            # differently — the parity oracle pins this.
            kernel.ensure_alt()
        self.arena = SharedArena()
        arrays, meta = kernel.shared_payload()
        self._csr_key = kernel.shared_key()
        segment = self.arena.publish(self._csr_key, arrays, meta)
        self.pool = WorkerPool(network, workers=workers,
                               csr_name=segment.name, csr_key=self._csr_key,
                               faults=faults, metrics=metrics,
                               ready_timeout_s=ready_timeout_s)
        self._lock = threading.Lock()
        #: model version -> weight segment keys, for deactivation pruning.
        self._weight_keys: dict[str, set[str]] = {}
        self._closed = False
        if warm:
            try:
                self.pool.wait_ready(ready_timeout_s)
            except ExecError:
                self.close()
                raise

    # ------------------------------------------------------------------
    # Candidate generation
    # ------------------------------------------------------------------
    def submit_candidates(self, state):
        """Dispatch one state's cold candidate generation to the pool."""
        request = state.request
        return self.pool.submit(
            "candidates", (request.source, request.target, state.config))

    def candidates_for(self, state) -> list[Path]:
        """Generate candidates on a worker; blocks within the deadline.

        Raises :class:`~repro.errors.NoPathError` exactly as the inline
        generator would, and :class:`~repro.errors.ExecError` for pool
        failures (which the caller treats as any transient failure).
        """
        ticket = self.submit_candidates(state)
        remaining = state.remaining_ms()
        timeout_s = (remaining / 1000.0 if remaining is not None
                     else DEFAULT_TIMEOUT_S)
        vertex_lists = ticket.wait(timeout_s)
        return [Path(self.network, vertices) for vertices in vertex_lists]

    # ------------------------------------------------------------------
    # Batch analytics
    # ------------------------------------------------------------------
    def submit_analytics(self, payload: dict):
        """Dispatch one batch-analytics tile to the pool.

        ``payload`` is a :mod:`repro.analytics.tiling` wire dict (plain
        ids and a cost *name*, never a callable — custom cost closures
        cannot cross the process boundary).  The worker runs the tile
        against the shared-memory kernel it attached at warmup and
        returns plain lists; see ``run_tile_payload`` for the formats.
        """
        return self.pool.submit("analytics", payload)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def ensure_weights(self, active) -> tuple[str, str]:
        """Publish ``active``'s compiled weights; returns (name, key)."""
        kernel = compiled_for(active.model)
        key = (f"weights:{active.version}:{kernel.weight_version}:"
               f"{kernel.dtype}")
        segment = self.arena.get(key)
        if segment is None:
            arrays, meta = kernel.shared_payload()
            segment = self.arena.publish(key, arrays, meta)
            with self._lock:
                self._weight_keys.setdefault(active.version, set()).add(key)
        return segment.name, key

    def scoring_proxy(self, active,
                      deadline_ms: float | None = None) -> _PoolModel:
        """A model stand-in scoring ``active``'s snapshot on the pool."""
        name, key = self.ensure_weights(active)
        return _PoolModel(self, name, key, deadline_ms)

    def submit_score_group(self, active, chunks):
        """Dispatch one scoring job per chunk; returns the tickets."""
        name, key = self.ensure_weights(active)
        return [
            self.pool.submit("score",
                             (name, key,
                              [[path.vertices for path in chunk]]))
            for chunk in chunks
        ]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_deactivate(self, version: str) -> int:
        """Unlink the weight segments of a deactivated model version."""
        with self._lock:
            keys = self._weight_keys.pop(version, set())
        return sum(1 for key in keys if self.arena.drop(key))

    def set_faults(self, faults) -> None:
        self.pool.faults = faults

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.pool.close()
        self.arena.close()

    def stats(self) -> dict[str, object]:
        return {
            "pool": self.pool.stats(),
            "arena": self.arena.stats(),
        }
