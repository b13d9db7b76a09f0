"""Process-pool execution plane.

Cold candidate generation (pure-Python Yen/diversified enumeration)
holds the GIL, so worker *threads* cannot run two enumerations at once.
This package takes the step past the GIL:

- :mod:`repro.exec.pool` — :class:`WorkerPool`: warm, spawn-safe
  worker processes that each build their own routing kernel from the
  network they are sent and run the *existing* kernels unmodified;
  dead workers are detected, their in-flight tickets failed (never
  hung), and the slot respawned.
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

__all__ = ["ExecutionPlane", "PoolTicket", "WorkerPool"]
