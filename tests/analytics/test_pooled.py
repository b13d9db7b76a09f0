"""Pooled tile fan-out: pooled results must equal inline results
exactly — the same ``run_tile_payload`` executes in both contexts
against the identical shared-memory CSR arrays."""

import numpy as np
import pytest

from repro.analytics import (
    od_cost_matrix,
    route_frequencies,
    service_area,
)
from repro.errors import AnalyticsError
from repro.exec import ExecutionPlane
from repro.obs import MetricsRegistry


@pytest.fixture(scope="module")
def plane(analytics_grid):
    plane = ExecutionPlane(analytics_grid, workers=2)
    yield plane
    plane.close()


class TestPooledParity:
    def test_od_matrix(self, analytics_grid, analytics_partition, plane):
        origins = [0, 9, 17, 9]  # duplicate sweep source on purpose
        destinations = [4, 22, 48, 31, 44]  # origins stay the sweep side
        inline = od_cost_matrix(analytics_grid, origins, destinations,
                                method="sweep")
        pooled = od_cost_matrix(analytics_grid, origins, destinations,
                                method="sweep", plane=plane,
                                partition=analytics_partition, tile_size=2)
        assert np.array_equal(pooled.costs, inline.costs)
        assert pooled.method == inline.method

    def test_service_area(self, analytics_grid, analytics_partition, plane):
        sources = [0, 24, 44, 7]
        budgets = [150.0, 400.0]
        inline = service_area(analytics_grid, sources, budgets)
        pooled = service_area(analytics_grid, sources, budgets,
                              plane=plane, partition=analytics_partition,
                              tile_size=2)
        assert len(pooled) == len(inline)
        for got, want in zip(pooled, inline):
            assert (got.source, got.budget) == (want.source, want.budget)
            assert got.vertices == want.vertices
            assert got.edges == want.edges

    def test_route_frequencies(self, analytics_grid, analytics_partition,
                               plane):
        pairs = [(0, 48), (9, 4), (17, 30), (44, 2), (0, 31)]
        inline = route_frequencies(analytics_grid, pairs)
        pooled = route_frequencies(analytics_grid, pairs, plane=plane,
                                   partition=analytics_partition,
                                   tile_size=2)
        assert np.array_equal(pooled.counts, inline.counts)
        assert pooled.num_pairs == inline.num_pairs
        assert pooled.unreachable_pairs == inline.unreachable_pairs


class TestPooledConstraints:
    def test_custom_cost_cannot_cross_the_pool(self, analytics_grid, plane):
        with pytest.raises(AnalyticsError):
            od_cost_matrix(analytics_grid, [0, 9, 17], [4, 48],
                           method="sweep", plane=plane,
                           cost=lambda edge: edge.length * 2.0)

    def test_pooled_tiles_counted(self, analytics_grid, plane):
        metrics = MetricsRegistry()
        od_cost_matrix(analytics_grid, [0, 9, 17, 30], [4, 48, 22, 31],
                       method="sweep", plane=plane, tile_size=2,
                       metrics=metrics)
        exported = metrics.export()
        assert exported["analytics.tiles.total"] == 2
        assert exported["analytics.tiles.pooled"] == 2
        assert exported["analytics.tile_ms.count"] == 2
