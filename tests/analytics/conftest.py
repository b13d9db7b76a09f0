"""Batch-analytics fixtures: a deterministic grid and a session-wide
/dev/shm hygiene check.

The grid is session-scoped (products are read-only over it); pooled
tests build their own module-scoped :class:`ExecutionPlane` because
spawned workers cost a Python start-up each.
"""

import pytest

from repro.exec.shm import list_repro_segments
from repro.graph import grid_network


@pytest.fixture(scope="session")
def analytics_grid():
    """A 7x7 perturbed grid: big enough for non-trivial sweeps, small
    enough that per-query dict reference loops stay fast."""
    return grid_network(7, 7, seed=13)


@pytest.fixture(scope="session", autouse=True)
def _no_shared_memory_leaks():
    """Whatever the analytics suite spawned, every ``repro-exec-*``
    segment must be unlinked by the time the last test finishes."""
    yield
    leaked = list_repro_segments()
    assert leaked == [], (
        f"analytics test suite leaked shared-memory segments: {leaked}")
