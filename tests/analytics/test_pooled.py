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
    """A two-worker pool cuts ``n`` sweep sources into input-order tiles
    of ``ceil(n / 4)``, so every duplicate source below spans tiles."""

    def test_od_matrix(self, analytics_grid, plane):
        origins = [0, 9, 17, 9]  # duplicate sweep source on purpose
        destinations = [4, 22, 48, 31, 44]  # origins stay the sweep side
        inline = od_cost_matrix(analytics_grid, origins, destinations,
                                method="sweep")
        pooled = od_cost_matrix(analytics_grid, origins, destinations,
                                method="sweep", plane=plane)
        assert np.array_equal(pooled.costs, inline.costs)
        assert pooled.method == inline.method

    def test_service_area(self, analytics_grid, plane):
        budgets = [150.0, 400.0]
        for sources in ([0, 24, 44, 7], [0, 24, 44, 7, 0]):
            inline = service_area(analytics_grid, sources, budgets)
            pooled = service_area(analytics_grid, sources, budgets,
                                  plane=plane)
            assert len(pooled) == len(inline)
            for got, want in zip(pooled, inline):
                assert (got.source, got.budget) == (want.source, want.budget)
                assert got.vertices == want.vertices
                assert got.edges == want.edges

    def test_route_frequencies(self, analytics_grid, plane):
        workloads = (
            [(0, 48), (9, 4), (17, 30), (44, 2), (0, 31)],
            # Origin 0 opens and closes the workload with the same pair.
            [(0, 48), (9, 4), (17, 30), (44, 2), (30, 5), (0, 48)],
        )
        for pairs in workloads:
            inline = route_frequencies(analytics_grid, pairs)
            pooled = route_frequencies(analytics_grid, pairs, plane=plane)
            assert np.array_equal(pooled.counts, inline.counts)
            assert pooled.num_pairs == inline.num_pairs
            assert pooled.unreachable_pairs == inline.unreachable_pairs


class TestPooledConstraints:
    def test_custom_cost_cannot_cross_the_pool(self, analytics_grid, plane):
        with pytest.raises(AnalyticsError):
            od_cost_matrix(analytics_grid, [0, 9, 17], [4, 48],
                           method="sweep", plane=plane,
                           cost=lambda edge: edge.length * 2.0)

    @pytest.mark.parametrize("budgets", [[], [-1.0, 400.0], [float("nan")]])
    def test_bad_budgets_refused_before_any_tile(self, analytics_grid, plane,
                                                 budgets, monkeypatch):
        """The pooled path raises the inline path's AnalyticsError and
        submits nothing, rather than a worker's ExecError."""
        submitted = []
        submit = plane.submit_analytics

        def counting_submit(payload):
            submitted.append(payload)
            return submit(payload)

        monkeypatch.setattr(plane, "submit_analytics", counting_submit)
        for lane in (None, plane):
            with pytest.raises(AnalyticsError, match="budget"):
                service_area(analytics_grid, [0, 24, 44], budgets,
                             plane=lane)
        assert submitted == []

    @pytest.mark.parametrize("product", ["od", "service_area"])
    def test_bad_chunk_size_refused_before_any_tile(self, analytics_grid,
                                                    plane, product,
                                                    monkeypatch):
        """``chunk_size=0`` raises the same AnalyticsError inline and
        pooled, and the pooled path submits nothing."""
        submitted = []
        submit = plane.submit_analytics

        def counting_submit(payload):
            submitted.append(payload)
            return submit(payload)

        monkeypatch.setattr(plane, "submit_analytics", counting_submit)
        for lane in (None, plane):
            with pytest.raises(AnalyticsError,
                               match="chunk_size must be >= 1, got 0"):
                if product == "od":
                    od_cost_matrix(analytics_grid, [0, 9, 17], [4, 48, 22],
                                   chunk_size=0, plane=lane)
                else:
                    service_area(analytics_grid, [0, 24, 44], [400.0],
                                 chunk_size=0, plane=lane)
        assert submitted == []

    def test_pooled_tiles_counted(self, analytics_grid, plane):
        metrics = MetricsRegistry()
        od_cost_matrix(analytics_grid, [0, 9, 17, 30], [4, 48, 22, 31],
                       method="sweep", plane=plane, metrics=metrics)
        exported = metrics.export()
        assert exported["analytics.tiles.total"] == 4
        assert exported["analytics.tiles.pooled"] == 4
        assert exported["analytics.tile_ms.count"] == 4
