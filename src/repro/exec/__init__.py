"""Process-pool execution plane over shared-memory hot-state.

The serving stack's kernels (CSR routing, fused scoring) release no
GIL, so worker *threads* only amortise batching — cold candidate
generation and per-snapshot scoring groups still execute
serially on one core.  This package takes the step past the GIL:

- :mod:`repro.exec.shm` — :class:`SharedArena` and the segment codec:
  immutable hot-state (CSR arrays, ALT landmark tables, compiled model
  weight buffers) packed into ``multiprocessing.shared_memory``
  segments keyed by graph fingerprint / ``weight_version``, attached
  zero-copy and refcounted per process.
- :mod:`repro.exec.pool` — :class:`WorkerPool`: warm, spawn-safe
  worker processes that pre-attach the CSR segment and run the
  *existing* kernels unmodified; dead workers are detected, their
  in-flight tickets failed (never hung), and the slot respawned.
- :mod:`repro.exec.plane` — :class:`ExecutionPlane`: the seam the
  serving layer talks to (``submit_candidates`` / ``submit_score_group``
  and a model-shaped scoring proxy), plus weight-segment lifecycle
  tied to registry activation.

Everything here is dormant unless ``ServingConfig.execution`` is set to
``"processes"`` — the default ``"inline"`` path is byte-identical to a
build without this package.
"""

from repro.exec.plane import ExecutionPlane
from repro.exec.pool import PoolTicket, WorkerPool
from repro.exec.shm import (
    SharedArena,
    attach_segment,
    create_segment,
    list_repro_segments,
)

__all__ = [
    "ExecutionPlane",
    "PoolTicket",
    "SharedArena",
    "WorkerPool",
    "attach_segment",
    "create_segment",
    "list_repro_segments",
]
