"""The execution-plane seam between serving and the worker pool.

:class:`ExecutionPlane` owns the one shared CSR segment and the
:class:`~repro.exec.pool.WorkerPool`, and exposes the two operations
the pool runs:

- :meth:`candidates_for` — cold candidate generation for a
  full-network query, returning real
  :class:`~repro.graph.path.Path` objects rebuilt from the workers'
  bare vertex tuples (paths are never pickled across the boundary —
  they drag the whole network with them).
- :meth:`submit_analytics` — one batch-analytics tile.

Scoring never leaves the parent: every forward pass runs on the
registry snapshot's own model, as it does inline.  CSR export happens
once, after force-building the ALT landmark tables owner-side —
landmark selection is randomised, so replicas must inherit the owner's
tables for element-wise ranking parity.
"""

from __future__ import annotations

from repro.errors import ExecError
from repro.exec.pool import WorkerPool
from repro.exec.shm import create_segment
from repro.graph.csr import ALT_MIN_VERTICES, csr_for
from repro.graph.path import Path

__all__ = ["ExecutionPlane"]

#: Fallback waiter deadline when a request carries no budget.
DEFAULT_TIMEOUT_S = 30.0

#: How long the constructor waits for every worker to report warm.
READY_TIMEOUT_S = 120.0


class ExecutionPlane:
    """Shared CSR segment + worker pool behind ``execution="processes"``."""

    def __init__(self, network, *, workers: int, metrics=None) -> None:
        self.network = network
        kernel = csr_for(network)
        if kernel.num_vertices >= ALT_MIN_VERTICES:
            # Build the landmark tables owner-side *before* export:
            # selection starts from a random vertex, and a replica
            # picking its own landmarks could break distance ties
            # differently — the parity oracle pins this.
            kernel.ensure_alt()
        arrays, meta = kernel.shared_payload()
        self.segment = create_segment(kernel.shared_key(), arrays, meta)
        self.pool = WorkerPool(network, workers=workers,
                               csr_name=self.segment.name,
                               csr_key=self.segment.key, metrics=metrics,
                               ready_timeout_s=READY_TIMEOUT_S)
        try:
            self.pool.wait_ready(READY_TIMEOUT_S)
        except ExecError:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Candidate generation
    # ------------------------------------------------------------------
    def candidates_for(self, state) -> list[Path]:
        """Generate candidates on a worker; blocks within the deadline.

        Raises :class:`~repro.errors.NoPathError` exactly as the inline
        generator would, and :class:`~repro.errors.ExecError` for pool
        failures (which the caller answers by generating inline).
        """
        request = state.request
        ticket = self.pool.submit(
            "candidates", (request.source, request.target, state.config))
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
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers and unlink the segment (idempotent)."""
        self.pool.close()
        self.segment.close()

    def stats(self) -> dict[str, object]:
        return {
            "pool": self.pool.stats(),
            "segment": {"key": self.segment.key,
                        "bytes": self.segment.nbytes},
        }
