"""Tests for path-similarity measures (the paper's ground-truth scores)."""

import pytest

from repro.errors import GraphError
from repro.graph import (
    Path,
    jaccard,
    overlap_ratio,
    time_weighted_jaccard,
    vertex_jaccard,
    weighted_jaccard,
)


@pytest.fixture
def paths(tiny_network):
    return {
        "top": Path(tiny_network, [0, 1, 2]),          # 200m via top row
        "motorway": Path(tiny_network, [0, 2]),        # 250m direct
        "bottom": Path(tiny_network, [0, 3, 4, 5, 2]), # 400m via bottom row
        "mixed": Path(tiny_network, [0, 1, 4, 5, 2]),  # 350m mixed
    }


class TestWeightedJaccard:
    def test_identical_paths_score_one(self, paths):
        assert weighted_jaccard(paths["top"], paths["top"]) == pytest.approx(1.0)

    def test_disjoint_paths_score_zero(self, paths):
        assert weighted_jaccard(paths["top"], paths["bottom"]) == 0.0

    def test_known_value(self, paths):
        # top = {(0,1),(1,2)}; mixed = {(0,1),(1,4),(4,5),(5,2)}
        # shared length = 100; union = 100+100+50+100+100 = 450.
        assert weighted_jaccard(paths["top"], paths["mixed"]) == pytest.approx(100 / 450)

    def test_symmetry(self, paths):
        assert weighted_jaccard(paths["top"], paths["mixed"]) == pytest.approx(
            weighted_jaccard(paths["mixed"], paths["top"])
        )

    def test_bounded(self, paths):
        for a in paths.values():
            for b in paths.values():
                assert 0.0 <= weighted_jaccard(a, b) <= 1.0

    def test_direction_sensitivity(self, tiny_network):
        forward = Path(tiny_network, [0, 1])
        backward = Path(tiny_network, [1, 0])
        # Directed edges (0,1) and (1,0) are different edges.
        assert weighted_jaccard(forward, backward) == 0.0

    def test_cross_network_rejected(self, tiny_network, small_grid):
        a = Path(tiny_network, [0, 1])
        ids = small_grid.vertex_ids()
        from repro.graph import shortest_path

        b = shortest_path(small_grid, ids[0], ids[1])
        with pytest.raises(GraphError):
            weighted_jaccard(a, b)


class TestOtherMeasures:
    def test_unweighted_jaccard_counts_edges(self, paths):
        # top ∩ mixed = 1 edge; union = 5 edges.
        assert jaccard(paths["top"], paths["mixed"]) == pytest.approx(0.2)

    def test_vertex_jaccard(self, paths):
        # top={0,1,2}, bottom={0,3,4,5,2}: shared {0,2} of union {0,1,2,3,4,5}.
        assert vertex_jaccard(paths["top"], paths["bottom"]) == pytest.approx(2 / 6)

    def test_time_weighted_differs_from_length_weighted(self, paths):
        # Motorway edges distort time weights relative to length weights.
        lw = weighted_jaccard(paths["motorway"], paths["mixed"])
        tw = time_weighted_jaccard(paths["motorway"], paths["mixed"])
        assert lw == tw == 0.0  # disjoint, both zero
        lw2 = weighted_jaccard(paths["top"], paths["mixed"])
        tw2 = time_weighted_jaccard(paths["top"], paths["mixed"])
        assert lw2 != pytest.approx(tw2)

    def test_overlap_ratio_asymmetric(self, tiny_network):
        long_path = Path(tiny_network, [0, 1, 4, 5, 2])
        sub = Path(tiny_network, [0, 1, 4])
        assert overlap_ratio(sub, long_path) == pytest.approx(1.0)
        assert overlap_ratio(long_path, sub) < 1.0

    def test_overlap_ratio_cross_network_rejected(self, tiny_network, small_grid):
        from repro.graph import shortest_path

        a = Path(tiny_network, [0, 1])
        ids = small_grid.vertex_ids()
        b = shortest_path(small_grid, ids[0], ids[1])
        with pytest.raises(GraphError):
            overlap_ratio(a, b)
