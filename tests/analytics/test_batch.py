"""Orchestration: sweep-side choice, disconnected pairs, custom costs,
metrics accounting."""

import math

import numpy as np
import pytest

from repro.analytics import (
    od_cost_matrix,
    route_frequencies,
    service_area,
)
from repro.errors import AnalyticsError
from repro.graph import (
    RoadCategory,
    RoadNetwork,
    dijkstra,
    travel_time_cost,
)
from repro.obs import MetricsRegistry


@pytest.fixture(scope="module")
def split_network():
    """Two components: a 3-cycle {0,1,2} and a one-way pair 10->11."""
    net = RoadNetwork(name="split")
    for vid, (x, y) in enumerate([(0, 0), (100, 0), (50, 80)]):
        net.add_vertex(vid, float(x), float(y))
    net.add_vertex(10, 500.0, 0.0)
    net.add_vertex(11, 600.0, 0.0)
    net.add_two_way(0, 1, length=100.0, category=RoadCategory.LOCAL)
    net.add_two_way(1, 2, length=90.0, category=RoadCategory.LOCAL)
    net.add_two_way(2, 0, length=95.0, category=RoadCategory.LOCAL)
    net.add_edge(10, 11, length=100.0, speed=50.0,
                 category=RoadCategory.LOCAL)
    return net


def _reference_cell(network, origin, destination, cost=None):
    kwargs = {} if cost is None else {"cost": cost}
    dist, _ = dijkstra(network, origin, target=destination, **kwargs)
    return dist.get(destination, math.inf)


class TestOdCostMatrix:
    def test_parity_and_sweep_side(self, analytics_grid):
        origins, destinations = [0, 9, 17], [4, 22, 31, 48]
        matrix = od_cost_matrix(analytics_grid, origins, destinations)
        assert matrix.method == "forward_sweep"  # origins are the smaller side
        assert matrix.sweeps == len(origins)
        for i, origin in enumerate(origins):
            for j, destination in enumerate(destinations):
                assert matrix.costs[i, j] == pytest.approx(
                    _reference_cell(analytics_grid, origin, destination),
                    abs=1e-9)

    def test_reverse_sweep_when_destinations_smaller(self, analytics_grid):
        matrix = od_cost_matrix(analytics_grid, [0, 9, 17, 30], [4, 48])
        assert matrix.method == "reverse_sweep"
        assert matrix.sweeps == 2
        assert matrix.cost(30, 4) == pytest.approx(
            _reference_cell(analytics_grid, 30, 4), abs=1e-9)

    def test_destinations_default_to_origins(self, analytics_grid):
        matrix = od_cost_matrix(analytics_grid, [0, 9, 17])
        assert matrix.destinations == (0, 9, 17)
        assert np.array_equal(np.diag(matrix.costs), np.zeros(3))

    def test_disconnected_pairs_are_inf(self, split_network):
        matrix = od_cost_matrix(split_network, [0, 10, 11], [2, 11])
        assert matrix.cost(0, 2) < math.inf
        assert matrix.cost(10, 11) == 100.0
        assert matrix.cost(11, 11) == 0.0
        assert matrix.cost(0, 11) == math.inf
        assert matrix.cost(10, 2) == math.inf
        assert matrix.num_disconnected == 3  # 0->11, 10->2, 11->2

    def test_custom_cost_closure_inline(self, analytics_grid):
        doubled = lambda edge: edge.length * 2.0  # noqa: E731
        matrix = od_cost_matrix(analytics_grid, [0, 9], [48], cost=doubled)
        assert matrix.cost(0, 48) == pytest.approx(
            _reference_cell(analytics_grid, 0, 48, cost=doubled), abs=1e-9)

    def test_validation(self, analytics_grid):
        with pytest.raises(AnalyticsError):
            od_cost_matrix(analytics_grid, [])
        with pytest.raises(AnalyticsError):
            od_cost_matrix(analytics_grid, [0], [1], method="quantum")
        with pytest.raises(AnalyticsError):
            od_cost_matrix(analytics_grid, [0], [1], method="ch")


class TestServiceArea:
    def test_output_order_source_major_budget_minor(self, analytics_grid):
        areas = service_area(analytics_grid, [0, 24], [100.0, 300.0])
        assert [(a.source, a.budget) for a in areas] == [
            (0, 100.0), (0, 300.0), (24, 100.0), (24, 300.0)]
        # Budgets nest: a bigger budget can only add members.
        assert areas[0].vertices <= areas[1].vertices
        assert areas[0].edges <= areas[1].edges

    def test_travel_time_budgets(self, analytics_grid):
        [area] = service_area(analytics_grid, [0], [20.0],
                              cost=travel_time_cost)
        dist, _ = dijkstra(analytics_grid, 0, cost=travel_time_cost)
        assert area.vertices == {v for v, d in dist.items() if d <= 20.0}

    def test_reverse_direction(self, split_network):
        [area] = service_area(split_network, [11], [150.0], reverse=True)
        assert area.vertices == {10, 11}  # only the one-way tail reaches it
        assert area.edges == {(10, 11)}
        [forward] = service_area(split_network, [11], [150.0])
        assert forward.vertices == {11}

    def test_validation(self, analytics_grid):
        with pytest.raises(AnalyticsError):
            service_area(analytics_grid, [], [100.0])


class TestRouteFrequencies:
    def test_unreachable_pairs_counted(self, split_network):
        frequencies = route_frequencies(
            split_network, [(10, 11), (11, 10), (0, 11)])
        assert frequencies.num_pairs == 3
        assert frequencies.unreachable_pairs == 2
        assert frequencies.frequency(10, 11) == 1.0

    def test_weights_accumulate(self, split_network):
        frequencies = route_frequencies(
            split_network, [(10, 11), (10, 11)], weights=[2.0, 0.25])
        assert frequencies.frequency(10, 11) == 2.25


class TestMetrics:
    def test_products_publish_analytics_series(self, analytics_grid):
        metrics = MetricsRegistry()
        od_cost_matrix(analytics_grid, [0, 9], [4, 48], metrics=metrics)
        service_area(analytics_grid, [0], [100.0], metrics=metrics)
        route_frequencies(analytics_grid, [(0, 48), (0, 3)],
                          metrics=metrics)
        exported = metrics.export()
        assert exported["analytics.od.requests"] == 1
        assert exported["analytics.od.pairs"] == 4
        assert exported["analytics.service_area.requests"] == 1
        assert exported["analytics.service_area.areas"] == 1
        assert exported["analytics.route_freq.pairs"] == 2
        assert exported["analytics.route_freq.unreachable"] == 0
        assert exported["analytics.tiles.total"] == 3
        assert exported["analytics.od.ms.count"] == 1
        assert exported["analytics.route_freq.ms.count"] == 1
