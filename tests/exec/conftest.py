"""Execution-plane fixtures: a small region network and a randomly
initialised model.

Worker processes are spawned (not forked), so every plane construction
costs a Python start-up; the fixtures here are scoped to amortise that
— chaos tests that maim their pool build private ones instead.
"""

import pytest

from repro.core import PathRankRanker, RankerConfig, build_pathrank
from repro.graph import north_jutland_like
from repro.ranking import Strategy, TrainingDataConfig

CANDIDATES = TrainingDataConfig(strategy=Strategy.TKDI, k=3)


@pytest.fixture(scope="session")
def exec_network():
    """A two-town region: big enough for varied candidate sets, small
    enough that workers warm up in well under a second."""
    return north_jutland_like(num_towns=2, seed=7)


@pytest.fixture(scope="session")
def exec_candidates() -> TrainingDataConfig:
    return CANDIDATES


@pytest.fixture(scope="session")
def exec_ranker(exec_network) -> PathRankRanker:
    """A ranker with deterministic random weights — scoring parity
    across processes does not care whether the model is trained."""
    ranker = PathRankRanker(exec_network, RankerConfig(
        embedding_dim=16, hidden_size=16, fc_hidden=8,
        training_data=CANDIDATES))
    ranker.model = build_pathrank(
        "PR-A2", num_vertices=exec_network.num_vertices, embedding_dim=16,
        hidden_size=16, fc_hidden=8, rng=5)
    return ranker
