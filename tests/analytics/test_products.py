"""Kernel-level products vs the per-query dict-backend reference.

Parity is the contract: every sweep row, membership set, and edge
count must equal what a per-query loop over ``dijkstra`` /
``shortest_path`` produces, element-wise.
"""

import math

import numpy as np
import pytest

from repro.analytics.products import (
    cost_from_name,
    cost_name,
    group_pairs,
    od_sweep_block,
    require_cost_name,
    route_frequency_counts,
    service_area_blocks,
)
from repro.errors import AnalyticsError, EdgeNotFoundError, NoPathError
from repro.graph import (
    RoadNetwork,
    csr_for,
    dijkstra,
    length_cost,
    shortest_path,
    shortest_path_cost,
    travel_time_cost,
)
from repro.graph.csr import CSRGraph


def _dist_rows(network, sources, cost=length_cost):
    """Reference: one dict Dijkstra per source, dense rows."""
    vids = sorted(network.vertex_ids())
    rows = np.full((len(sources), len(vids)), math.inf)
    for i, source in enumerate(sources):
        dist, _ = dijkstra(network, source, cost=cost)
        for j, vid in enumerate(vids):
            rows[i, j] = dist.get(vid, math.inf)
    return vids, rows


class TestCostNames:
    def test_roundtrip(self):
        assert cost_name(None) == "length"
        assert cost_name(length_cost) == "length"
        assert cost_name(travel_time_cost) == "travel_time"
        assert cost_from_name(None) is None
        assert cost_from_name("length") is None
        assert cost_from_name("travel_time") is travel_time_cost

    def test_custom_closure_has_no_wire_name(self):
        assert cost_name(lambda edge: edge.length * 2.0) is None
        with pytest.raises(AnalyticsError):
            require_cost_name(lambda edge: edge.length * 2.0)

    def test_unknown_name_rejected(self):
        with pytest.raises(AnalyticsError):
            cost_from_name("speed_of_sound")


class TestODSweepBlock:
    def test_forward_rows_match_dict_dijkstra(self, analytics_grid):
        kernel = csr_for(analytics_grid)
        vids, reference = _dist_rows(analytics_grid, [0, 5, 17])
        cols = [vids[2], vids[10], vids[-1]]
        block = od_sweep_block(kernel, [0, 5, 17], cols)
        want = reference[:, [vids.index(c) for c in cols]]
        assert np.array_equal(block, want)

    def test_reverse_block_is_forward_transposed(self, analytics_grid):
        kernel = csr_for(analytics_grid)
        sweep, cols = [3, 11], [0, 7, 20]
        forward = np.array([[shortest_path_cost(analytics_grid, c, s,
                                                backend="dict")
                             for s in sweep] for c in cols])
        reverse = od_sweep_block(kernel, sweep, cols, reverse=True)
        assert np.allclose(reverse.T, forward)

    def test_travel_time_cost(self, analytics_grid):
        kernel = csr_for(analytics_grid)
        block = od_sweep_block(kernel, [0], [30], cost=travel_time_cost)
        dist, _ = dijkstra(analytics_grid, 0, cost=travel_time_cost)
        assert block[0, 0] == pytest.approx(dist[30], abs=1e-9)


class TestServiceAreaBlocks:
    def test_forward_membership_matches_budget_test(self, analytics_grid):
        kernel = csr_for(analytics_grid)
        budgets = [150.0, 400.0]
        areas = service_area_blocks(kernel, [0, 24], budgets)
        assert len(areas) == 4  # source-major, budget-minor
        position = 0
        for source in (0, 24):
            dist, _ = dijkstra(analytics_grid, source)
            for budget in budgets:
                area = areas[position]
                position += 1
                assert area.source == source
                assert area.budget == budget
                assert not area.reverse
                assert area.vertices == {
                    v for v, d in dist.items() if d <= budget}
                assert area.edges == {
                    edge.key for edge in analytics_grid.edges()
                    if dist.get(edge.key[0], math.inf) + edge.length
                    <= budget}

    def test_reverse_is_the_catchment(self, analytics_grid):
        kernel = csr_for(analytics_grid)
        source, budget = 24, 300.0
        [area] = service_area_blocks(kernel, [source], [budget],
                                     reverse=True)

        def to_source(v):
            try:
                return shortest_path_cost(analytics_grid, v, source,
                                          backend="dict")
            except NoPathError:
                return math.inf

        assert area.reverse
        assert area.vertices == {
            v for v in analytics_grid.vertex_ids() if to_source(v) <= budget}
        assert area.edges == {
            edge.key for edge in analytics_grid.edges()
            if edge.length + to_source(edge.key[1]) <= budget}

    def test_sweep_limit_keeps_the_largest_budget(self):
        """Integer weights make ``d == budget`` exact: vertex 2 sits at
        exactly the largest budget (7) and the traversal of edge 1 -> 2
        ends exactly at it, so both are members; the limited sweep rows
        are the unlimited ones up to the limit and ``inf`` beyond it."""
        network = RoadNetwork()
        for v in range(6):
            network.add_vertex(v, float(v), 0.0)
        for u, v, w in ((0, 1, 3), (1, 2, 4), (0, 2, 9), (2, 3, 2),
                        (3, 4, 1), (1, 5, 6), (5, 0, 1)):
            network.add_edge(u, v, length=float(w))
        kernel = CSRGraph(network)
        budgets = [5.0, 7.0]
        for reverse in (False, True):
            full = kernel.multi_source([0, 2], reverse=reverse)
            [(start, rows)] = kernel.iter_multi_source(
                [0, 2], reverse=reverse, limit=7.0)
            assert start == 0
            assert np.array_equal(
                rows, np.where(full <= 7.0, full, math.inf))
        small, large = service_area_blocks(kernel, [0], budgets)
        assert 2 in large.vertices and (1, 2) in large.edges
        assert 2 not in small.vertices
        dist = kernel.single_source(0)
        for area in (small, large):
            assert area.vertices == {
                v for v in range(6) if dist[v] <= area.budget}
            assert area.edges == {
                edge.key for edge in network.edges()
                if dist[edge.key[0]] + edge.length <= area.budget}

    def test_source_always_inside_its_area(self, analytics_grid):
        kernel = csr_for(analytics_grid)
        [area] = service_area_blocks(kernel, [7], [0.0])
        assert area.vertices == {7}
        assert area.edges == set()


class TestRouteFrequencyCounts:
    def test_counts_match_per_pair_reconstructions(self, analytics_grid):
        kernel = csr_for(analytics_grid)
        pairs = [(0, 48), (0, 44), (10, 48), (10, 3), (27, 5)]
        groups = group_pairs(pairs, None)
        counts, num_pairs, unreachable = route_frequency_counts(
            kernel, groups)
        reference: dict[tuple[int, int], float] = {}
        for origin, destination in pairs:
            path = shortest_path(analytics_grid, origin, destination,
                                 backend="dict")
            for u, v in zip(path.vertices, path.vertices[1:]):
                reference[(u, v)] = reference.get((u, v), 0.0) + 1.0
        batched = {}
        for pos in np.flatnonzero(counts):
            u = int(np.searchsorted(kernel.indptr, pos, side="right")) - 1
            batched[(kernel.ids[u],
                     int(kernel.ids[kernel.indices[pos]]))] = counts[pos]
        assert num_pairs == len(pairs)
        assert unreachable == 0
        assert batched == reference

    def test_weights_scale_contributions(self, analytics_grid):
        kernel = csr_for(analytics_grid)
        groups = group_pairs([(0, 48), (0, 44)], [2.5, 0.5])
        counts, _, _ = route_frequency_counts(kernel, groups)
        base, _, _ = route_frequency_counts(
            kernel, group_pairs([(0, 48)], [1.0]))
        # The 2.5-weighted pair contributes exactly 2.5x the unit path.
        path_positions = np.flatnonzero(base)
        assert np.all(counts[path_positions] >= 2.5)

    def test_self_pair_contributes_nothing(self, analytics_grid):
        kernel = csr_for(analytics_grid)
        counts, num_pairs, unreachable = route_frequency_counts(
            kernel, group_pairs([(5, 5)], None))
        assert num_pairs == 1
        assert unreachable == 0
        assert not counts.any()


class TestGroupPairs:
    def test_groups_by_origin_first_seen_order(self):
        groups = group_pairs([(3, 1), (7, 2), (3, 4)], None)
        assert [source for source, _ in groups] == [3, 7]
        assert dict(groups)[3] == [(1, 1.0), (4, 1.0)]

    def test_weights_length_validated(self):
        with pytest.raises(AnalyticsError):
            group_pairs([(1, 2), (3, 4)], [1.0])


class TestResultTypes:
    def test_od_matrix_accessors(self, analytics_grid):
        from repro.analytics import od_cost_matrix

        matrix = od_cost_matrix(analytics_grid, [0, 5], [48, 30])
        assert matrix.num_pairs == 4
        assert matrix.cost(5, 48) == matrix.costs[1, 0]
        payload = matrix.as_dict()
        assert payload["origins"] == [0, 5]
        assert all(c is None or isinstance(c, float)
                   for row in payload["costs"] for c in row)

    def test_route_frequencies_rejects_absent_edge(self, analytics_grid):
        from repro.analytics import route_frequencies

        frequencies = route_frequencies(analytics_grid, [(0, 48)])
        with pytest.raises(EdgeNotFoundError):
            frequencies.frequency(0, 48)  # not adjacent on a grid
        assert all(load > 0.0 for _, load in frequencies.items())
