"""Process-pool execution plane over a shared-memory CSR segment.

Cold candidate generation (pure-Python Yen/diversified enumeration)
holds the GIL, so worker *threads* cannot run two enumerations at once.
This package takes the step past the GIL:

- :mod:`repro.exec.shm` — the segment codec: immutable hot-state (the
  CSR arrays and ALT landmark tables) packed into one
  ``multiprocessing.shared_memory`` segment keyed by graph
  fingerprint, attached zero-copy and refcounted per process.
- :mod:`repro.exec.pool` — :class:`WorkerPool`: warm, spawn-safe
  worker processes that pre-attach the CSR segment and run the
  *existing* kernels unmodified; dead workers are detected, their
  in-flight tickets failed (never hung), and the slot respawned.
- :mod:`repro.exec.plane` — :class:`ExecutionPlane`: the seam the
  serving layer and the batch-analytics products talk to
  (``candidates_for`` and ``submit_analytics``).

Scoring stays in the parent process.  Everything here is dormant
unless ``ServingConfig.execution`` is set to ``"processes"`` (or an
analytics product is handed a plane) — the default ``"inline"`` path
constructs none of it.
"""

from repro.exec.plane import ExecutionPlane
from repro.exec.pool import PoolTicket, WorkerPool
from repro.exec.shm import (
    attach_segment,
    create_segment,
    list_repro_segments,
)

__all__ = [
    "ExecutionPlane",
    "PoolTicket",
    "WorkerPool",
    "attach_segment",
    "create_segment",
    "list_repro_segments",
]
