"""Tiling and the tile wire format."""

import numpy as np
import pytest

from repro.analytics import tile_sources
from repro.analytics.products import od_sweep_block, service_area_blocks
from repro.analytics.tiling import run_tile_payload
from repro.errors import AnalyticsError
from repro.graph import csr_for


class TestTileSources:
    def test_plain_chunking_preserves_order(self):
        assert tile_sources([5, 3, 8, 1, 9], 2) == [[5, 3], [8, 1], [9]]
        assert tile_sources([5], 10) == [[5]]
        assert tile_sources([], 4) == []

    def test_shard_grouping(self, analytics_grid, analytics_partition):
        sources = sorted(analytics_grid.vertex_ids())
        tiles = tile_sources(sources, 4, analytics_partition)
        assert sorted(vid for tile in tiles for vid in tile) == sources
        # Every full tile is shard-pure except at shard boundaries:
        # sources arrive shard-major, so a tile spans at most 2 shards
        # and shards appear in ascending blocks.
        shard_sequence = [analytics_partition.shard_of(tile[0])
                          for tile in tiles]
        assert shard_sequence == sorted(shard_sequence)

    def test_tile_size_validated(self):
        with pytest.raises(AnalyticsError):
            tile_sources([1, 2], 0)


class TestRunTilePayload:
    def test_od_tile_equals_kernel_block(self, analytics_grid):
        kernel = csr_for(analytics_grid)
        result = run_tile_payload(analytics_grid, {
            "product": "od", "sweep": [0, 9], "cols": [4, 48],
            "reverse": False, "cost": "length"})
        want = od_sweep_block(kernel, [0, 9], [4, 48])
        assert np.array_equal(np.array(result["rows"]), want)

    def test_service_area_tile_round_trips_membership(self, analytics_grid):
        kernel = csr_for(analytics_grid)
        result = run_tile_payload(analytics_grid, {
            "product": "service_area", "sources": [0], "budgets": [200.0],
            "reverse": False, "cost": None})
        [entry] = result["areas"]
        [area] = service_area_blocks(kernel, [0], [200.0])
        assert set(entry["vertices"]) == area.vertices
        assert {tuple(edge) for edge in entry["edges"]} == area.edges

    def test_route_freq_tile_is_sparse(self, analytics_grid):
        result = run_tile_payload(analytics_grid, {
            "product": "route_freq",
            "groups": [[0, [[48, 1.0], [0, 1.0]]]], "cost": "length"})
        assert result["num_pairs"] == 2
        assert result["unreachable"] == 0
        assert len(result["positions"]) == len(result["counts"])
        assert all(count > 0.0 for count in result["counts"])

    def test_unknown_product_rejected(self, analytics_grid):
        with pytest.raises(AnalyticsError):
            run_tile_payload(analytics_grid, {"product": "heatmap"})

    def test_unknown_cost_name_rejected(self, analytics_grid):
        with pytest.raises(AnalyticsError):
            run_tile_payload(analytics_grid, {
                "product": "od", "sweep": [0], "cols": [4],
                "cost": "bananas"})
