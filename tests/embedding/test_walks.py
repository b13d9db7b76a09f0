"""Tests for the biased second-order walk generator."""

import numpy as np
import pytest

from repro.embedding import BiasedWalkGenerator
from repro.graph import RoadNetwork, grid_network


@pytest.fixture(scope="module")
def grid():
    return grid_network(6, 6, seed=5)


class TestWalkValidity:
    def test_walks_follow_edges(self, grid):
        walker = BiasedWalkGenerator(grid)
        walk = walker.walk(0, 20, rng=0)
        for u, v in zip(walk, walk[1:]):
            assert grid.has_edge(u, v)

    def test_walk_starts_at_start(self, grid):
        walker = BiasedWalkGenerator(grid)
        assert walker.walk(3, 10, rng=0)[0] == 3

    def test_walk_length_respected(self, grid):
        walker = BiasedWalkGenerator(grid)
        assert len(walker.walk(0, 15, rng=0)) == 15

    def test_length_one(self, grid):
        walker = BiasedWalkGenerator(grid)
        assert walker.walk(4, 1, rng=0) == [4]

    def test_dead_end_truncates(self):
        net = RoadNetwork()
        net.add_vertex(0, 0, 0)
        net.add_vertex(1, 1, 0)
        net.add_vertex(2, 2, 0)
        net.add_edge(0, 1, length=1.0)
        net.add_edge(1, 2, length=1.0)
        walker = BiasedWalkGenerator(net)
        walk = walker.walk(0, 10, rng=0)
        assert walk == [0, 1, 2]

    def test_isolated_sink_returns_single(self):
        net = RoadNetwork()
        net.add_vertex(0, 0, 0)
        net.add_vertex(1, 1, 0)
        net.add_edge(0, 1, length=1.0)
        walker = BiasedWalkGenerator(net)
        assert walker.walk(1, 10, rng=0) == [1]

    def test_invalid_length(self, grid):
        with pytest.raises(ValueError):
            BiasedWalkGenerator(grid).walk(0, 0)

    def test_invalid_pq(self, grid):
        with pytest.raises(ValueError):
            BiasedWalkGenerator(grid, p=0.0)
        with pytest.raises(ValueError):
            BiasedWalkGenerator(grid, q=-1.0)

    @pytest.mark.parametrize("kwargs", [
        {"p": float("nan")}, {"p": float("inf")},
        {"q": float("nan")}, {"q": float("inf")},
    ])
    def test_non_finite_pq_rejected(self, grid, kwargs):
        with pytest.raises(ValueError, match="finite"):
            BiasedWalkGenerator(grid, **kwargs)

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            BiasedWalkGenerator(RoadNetwork())


class TestGenerate:
    def test_count(self, grid):
        walker = BiasedWalkGenerator(grid)
        walks = walker.generate(3, 10, rng=0)
        assert len(walks) == 3 * grid.num_vertices

    def test_every_vertex_covered(self, grid):
        walker = BiasedWalkGenerator(grid)
        walks = walker.generate(1, 5, rng=0)
        starts = {walk[0] for walk in walks}
        assert starts == set(grid.vertex_ids())

    def test_deterministic_given_seed(self, grid):
        walker = BiasedWalkGenerator(grid)
        assert walker.generate(2, 8, rng=42) == walker.generate(2, 8, rng=42)

    def test_validation(self, grid):
        with pytest.raises(ValueError):
            BiasedWalkGenerator(grid).generate(0, 10)


class TestBias:
    def build_line_with_branch(self):
        """0 <-> 1 <-> 2 and 1 <-> 3: from edge (0,1), returning to 0 is
        controlled by p; moving to 2/3 (distance 2 from 0) by q."""
        net = RoadNetwork()
        for i, (x, y) in enumerate([(0, 0), (1, 0), (2, 0), (1, 1)]):
            net.add_vertex(i, float(x), float(y))
        net.add_two_way(0, 1, length=1.0)
        net.add_two_way(1, 2, length=1.0)
        net.add_two_way(1, 3, length=1.0)
        return net

    def count_returns(self, p, q, trials=4000):
        net = self.build_line_with_branch()
        walker = BiasedWalkGenerator(net, p=p, q=q)
        rng = np.random.default_rng(0)
        returns = 0
        for _ in range(trials):
            walk = walker.walk(0, 3, rng=rng)
            if len(walk) == 3 and walk[2] == 0:
                returns += 1
        return returns / trials

    def test_low_p_encourages_returning(self):
        assert self.count_returns(p=0.1, q=1.0) > self.count_returns(p=10.0, q=1.0)

    def test_high_q_discourages_outward(self):
        # With q large, outward moves (to 2/3) are damped, so returns rise.
        assert self.count_returns(p=1.0, q=10.0) > self.count_returns(p=1.0, q=0.1)

    def test_weighted_walks_prefer_heavy_edges(self):
        net = RoadNetwork()
        net.add_vertex(0, 0, 0)
        net.add_vertex(1, 1, 0)
        net.add_vertex(2, 0, 1)
        net.add_two_way(0, 1, length=9.0)
        net.add_two_way(0, 2, length=1.0)
        walker = BiasedWalkGenerator(net, weighted=True)
        rng = np.random.default_rng(1)
        firsts = [walker.walk(0, 2, rng=rng)[1] for _ in range(4000)]
        share_to_1 = firsts.count(1) / len(firsts)
        assert share_to_1 > 0.8
