"""Shared fixtures: small deterministic networks used across the suite."""

import pytest

from repro.graph import (
    Path,
    RoadCategory,
    RoadNetwork,
    grid_network,
    north_jutland_like,
)


@pytest.fixture(scope="session")
def tiny_network() -> RoadNetwork:
    """A hand-built 6-vertex network with known shortest paths.

    Layout (lengths in metres, all two-way except 4->5)::

        0 --100-- 1 --100-- 2
        |         |         |
       100       50        100
        |         |         |
        3 --100-- 4 --100-- 5      plus a fast motorway 0->2 of 250m
    """
    net = RoadNetwork(name="tiny")
    coordinates = [(0, 100), (100, 100), (200, 100), (0, 0), (100, 0), (200, 0)]
    for vid, (x, y) in enumerate(coordinates):
        net.add_vertex(vid, float(x), float(y))
    net.add_two_way(0, 1, length=100.0, category=RoadCategory.LOCAL)
    net.add_two_way(1, 2, length=100.0, category=RoadCategory.LOCAL)
    net.add_two_way(0, 3, length=100.0, category=RoadCategory.RESIDENTIAL)
    net.add_two_way(1, 4, length=50.0, category=RoadCategory.LOCAL)
    net.add_two_way(2, 5, length=100.0, category=RoadCategory.RESIDENTIAL)
    net.add_two_way(3, 4, length=100.0, category=RoadCategory.LOCAL)
    net.add_two_way(4, 5, length=100.0, category=RoadCategory.LOCAL)
    net.add_edge(0, 2, length=250.0, speed=110.0, category=RoadCategory.MOTORWAY)
    return net


@pytest.fixture(scope="session")
def small_grid() -> RoadNetwork:
    """An 8x8 perturbed grid (deterministic seed)."""
    return grid_network(8, 8, seed=7)


@pytest.fixture(scope="session")
def region_network() -> RoadNetwork:
    """A small multi-town region (deterministic seed)."""
    return north_jutland_like(num_towns=4, seed=11)


def _random_walk_paths(network, lengths, rng):
    """Valid paths of the requested vertex counts: random walks that
    avoid immediate backtracking where the degree allows."""
    ids = network.vertex_ids()
    paths = []
    for length in lengths:
        vertices = [int(rng.choice(ids))]
        previous = None
        while len(vertices) < length:
            neighbours = [edge.target
                          for edge in network.out_edges(vertices[-1])]
            assert neighbours, f"random walk stuck at sink {vertices[-1]}"
            forward = [v for v in neighbours if v != previous] or neighbours
            previous = vertices[-1]
            vertices.append(int(rng.choice(forward)))
        paths.append(Path(network, vertices))
    return paths


@pytest.fixture(scope="session")
def random_walk_paths():
    """Factory ``(network, lengths, rng) -> [Path]``: mixed-length
    candidate sets for scoring tests."""
    return _random_walk_paths
