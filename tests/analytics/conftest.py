"""Batch-analytics fixtures: a deterministic grid.

The grid is session-scoped (products are read-only over it); pooled
tests build their own module-scoped :class:`ExecutionPlane` because
spawned workers cost a Python start-up each.
"""

import pytest

from repro.graph import grid_network


@pytest.fixture(scope="session")
def analytics_grid():
    """A 7x7 perturbed grid: big enough for non-trivial sweeps, small
    enough that per-query dict reference loops stay fast."""
    return grid_network(7, 7, seed=13)
