"""The execution-plane seam between serving and the worker pool.

:class:`ExecutionPlane` owns the :class:`~repro.exec.pool.WorkerPool`
and exposes the two operations the pool runs:

- :meth:`candidates_for` — cold candidate generation for a
  full-network query, returning real
  :class:`~repro.graph.path.Path` objects rebuilt from the workers'
  bare vertex tuples (paths are never pickled across the boundary —
  they drag the whole network with them).
- :meth:`submit_analytics` — one batch-analytics tile.

Scoring never leaves the parent: every forward pass runs on the
registry snapshot's own model, as it does inline.  Each worker builds
its own routing kernel from the network it is sent; Yen's guidance
depends on the network alone, so a worker's candidates equal the
parent's element-wise.
"""

from __future__ import annotations

from repro.errors import ExecError
from repro.exec.pool import WorkerPool
from repro.graph.path import Path

__all__ = ["ExecutionPlane"]

#: How long a request waits on its worker before the worker counts as
#: hung: a bound on hangs, not the request's deadline.
DEFAULT_TIMEOUT_S = 30.0

#: How long the constructor waits for every worker to report warm.
READY_TIMEOUT_S = 120.0


class ExecutionPlane:
    """The worker pool behind ``execution="processes"``."""

    def __init__(self, network, *, workers: int, metrics=None) -> None:
        self.network = network
        self.pool = WorkerPool(network, workers=workers, metrics=metrics,
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
        """Generate candidates on a worker.

        Waits up to :data:`DEFAULT_TIMEOUT_S` whatever the request's
        deadline: inline generation also runs to completion, and the
        next stage boundary judges expiry.  Waiting only the remaining
        budget would kill a healthy worker mid-enumeration and then
        generate inline anyway.

        Raises :class:`~repro.errors.NoPathError` exactly as the inline
        generator would, and :class:`~repro.errors.ExecError` for pool
        failures (which the caller answers by generating inline).
        """
        request = state.request
        ticket = self.pool.submit(
            "candidates", (request.source, request.target, state.config))
        vertex_lists = ticket.wait(DEFAULT_TIMEOUT_S)
        return [Path(self.network, vertices) for vertices in vertex_lists]

    # ------------------------------------------------------------------
    # Batch analytics
    # ------------------------------------------------------------------
    def submit_analytics(self, payload: dict):
        """Dispatch one batch-analytics tile to the pool.

        ``payload`` is a :mod:`repro.analytics.tiling` wire dict (plain
        ids and a cost *name*, never a callable — custom cost closures
        cannot cross the process boundary).  The worker runs the tile
        against the kernel it built at warmup and returns plain lists;
        see ``run_tile_payload`` for the formats.
        """
        return self.pool.submit("analytics", payload)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers (idempotent)."""
        self.pool.close()

    def stats(self) -> dict[str, object]:
        return {"pool": self.pool.stats()}
