"""Tests for Dijkstra, with networkx as the oracle."""

import math

import networkx as nx
import pytest

from repro.errors import NoPathError, VertexNotFoundError
from repro.graph import (
    RoadNetwork,
    dijkstra,
    length_cost,
    shortest_path,
    shortest_path_cost,
    travel_time_cost,
    yen_k_shortest_paths,
)
from repro.graph.builders import grid_network


class TestDijkstra:
    def test_known_shortest(self, tiny_network):
        path = shortest_path(tiny_network, 3, 2, cost=length_cost)
        assert path.vertices == (3, 4, 1, 2) or path.length <= 300.0

    def test_distances_complete(self, tiny_network):
        dist, _ = dijkstra(tiny_network, 0)
        assert set(dist) == set(tiny_network.vertex_ids())
        assert dist[0] == 0.0

    def test_against_networkx_lengths(self, small_grid):
        g = small_grid.to_networkx()
        dist, _ = dijkstra(small_grid, 0, cost=length_cost)
        expected = nx.single_source_dijkstra_path_length(g, 0, weight="length")
        assert set(dist) == set(expected)
        for node, d in expected.items():
            assert dist[node] == pytest.approx(d)

    def test_travel_time_against_networkx(self, small_grid):
        g = small_grid.to_networkx()
        dist, _ = dijkstra(small_grid, 5, cost=travel_time_cost)
        expected = nx.single_source_dijkstra_path_length(g, 5, weight="travel_time")
        for node, d in expected.items():
            assert dist[node] == pytest.approx(d)

    def test_early_stop_with_target(self, small_grid):
        ids = small_grid.vertex_ids()
        target = ids[1]
        dist, _ = dijkstra(small_grid, ids[0], target=target)
        assert target in dist

    def test_banned_vertex_excluded(self, tiny_network):
        path = shortest_path(tiny_network, 3, 2, banned_vertices={4})
        assert 4 not in path.vertices

    def test_banned_edge_excluded(self, tiny_network):
        direct = shortest_path(tiny_network, 0, 2)
        banned = shortest_path(tiny_network, 0, 2, banned_edges={(0, 2)})
        assert direct.vertices != banned.vertices or (0, 2) not in banned.edge_set

    def test_banned_source_empty(self, tiny_network):
        dist, prev = dijkstra(tiny_network, 0, banned_vertices={0})
        assert dist == {} and prev == {}

    def test_missing_source(self, tiny_network):
        with pytest.raises(VertexNotFoundError):
            dijkstra(tiny_network, 404)

    def test_negative_cost_rejected(self, tiny_network):
        with pytest.raises(ValueError):
            dijkstra(tiny_network, 0, cost=lambda e: -1.0)

    @pytest.mark.parametrize("backend", ["csr", "dict"])
    def test_nan_cost_rejected_on_both_lanes(self, backend):
        """A NaN edge cost is refused on both lanes: neither routed on
        (a NaN-cost path) nor mistaken for an unreachable target."""
        grid = grid_network(6, 6, seed=5)

        def nan_cost(edge):
            return math.nan if edge.source == 0 else edge.length

        with pytest.raises(ValueError, match="NaN"):
            shortest_path(grid, 0, 35, nan_cost, backend=backend)
        with pytest.raises(ValueError, match="NaN"):
            yen_k_shortest_paths(grid, 0, 35, 3, cost=nan_cost,
                                 backend=backend)

    def test_no_path_raises(self):
        net = RoadNetwork()
        net.add_vertex(0, 0, 0)
        net.add_vertex(1, 1, 0)
        net.add_vertex(2, 2, 0)
        net.add_edge(0, 1, length=1.0)
        with pytest.raises(NoPathError):
            shortest_path(net, 1, 0)

    def test_same_source_target_raises(self, tiny_network):
        with pytest.raises(NoPathError):
            shortest_path(tiny_network, 0, 0)

    def test_shortest_path_cost_matches_path(self, small_grid):
        ids = small_grid.vertex_ids()
        s, d = ids[0], ids[-1]
        assert shortest_path_cost(small_grid, s, d) == pytest.approx(
            shortest_path(small_grid, s, d).length
        )

    def test_shortest_path_cost_zero_for_self(self, tiny_network):
        assert shortest_path_cost(tiny_network, 0, 0) == 0.0
