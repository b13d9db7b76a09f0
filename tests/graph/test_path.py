"""Unit tests for the Path value object."""

import pytest

from repro.errors import InvalidPathError
from repro.graph import Path


class TestConstruction:
    def test_valid_path(self, tiny_network):
        path = Path(tiny_network, [0, 1, 2])
        assert path.vertices == (0, 1, 2)
        assert path.source == 0
        assert path.target == 2

    def test_single_vertex_rejected(self, tiny_network):
        with pytest.raises(InvalidPathError):
            Path(tiny_network, [0])

    def test_missing_edge_rejected(self, tiny_network):
        with pytest.raises(InvalidPathError):
            Path(tiny_network, [0, 5])

    def test_one_way_direction_enforced(self, tiny_network):
        Path(tiny_network, [0, 2])  # motorway 0->2 exists
        with pytest.raises(InvalidPathError):
            Path(tiny_network, [2, 0])  # but not 2->0 directly

    def test_vertices_coerced_to_int(self, tiny_network):
        path = Path(tiny_network, (0.0, 1.0))
        assert path.vertices == (0, 1)


class TestMeasures:
    def test_length(self, tiny_network):
        assert Path(tiny_network, [0, 1, 2]).length == pytest.approx(200.0)

    def test_travel_time_uses_speeds(self, tiny_network):
        slow = Path(tiny_network, [0, 1, 2])
        fast = Path(tiny_network, [0, 2])
        # Motorway is longer (250m vs 200m) but far faster.
        assert fast.length > slow.length
        assert fast.travel_time < slow.travel_time

    def test_custom_cost(self, tiny_network):
        path = Path(tiny_network, [0, 1, 2])
        assert path.cost(lambda e: 1.0) == 2.0

    def test_counts(self, tiny_network):
        path = Path(tiny_network, [0, 1, 4, 5])
        assert path.num_vertices == 4
        assert path.num_edges == 3
        assert len(path) == 4

    def test_category_fractions_sum_to_one(self, tiny_network):
        fractions = Path(tiny_network, [0, 1, 4, 3]).category_length_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_category_fractions_values(self, tiny_network):
        fractions = Path(tiny_network, [0, 2]).category_length_fractions()
        assert fractions == {"motorway": pytest.approx(1.0)}


class TestSetsAndRelations:
    def test_edge_keys_ordered(self, tiny_network):
        path = Path(tiny_network, [0, 1, 2])
        assert path.edge_keys == ((0, 1), (1, 2))

    def test_edge_set(self, tiny_network):
        assert Path(tiny_network, [0, 1]).edge_set == {(0, 1)}

    def test_shared_edges(self, tiny_network):
        a = Path(tiny_network, [0, 1, 2])
        b = Path(tiny_network, [3, 0, 1])
        assert a.shared_edges(b) == {(0, 1)}

    def test_is_simple(self, tiny_network):
        assert Path(tiny_network, [0, 1, 2]).is_simple()
        assert not Path(tiny_network, [0, 1, 0]).is_simple()

    def test_equality_and_hash(self, tiny_network):
        a = Path(tiny_network, [0, 1, 2])
        b = Path(tiny_network, [0, 1, 2])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Path(tiny_network, [0, 2])

    def test_equality_other_type(self, tiny_network):
        assert Path(tiny_network, [0, 1]) != (0, 1)


class TestComposition:
    def test_prefix(self, tiny_network):
        path = Path(tiny_network, [0, 1, 4, 5])
        assert path.prefix(3).vertices == (0, 1, 4)

    def test_prefix_bounds(self, tiny_network):
        path = Path(tiny_network, [0, 1, 2])
        with pytest.raises(InvalidPathError):
            path.prefix(1)
        with pytest.raises(InvalidPathError):
            path.prefix(4)

    def test_concat(self, tiny_network):
        left = Path(tiny_network, [0, 1])
        right = Path(tiny_network, [1, 4, 5])
        assert left.concat(right).vertices == (0, 1, 4, 5)

    def test_concat_mismatch(self, tiny_network):
        with pytest.raises(InvalidPathError):
            Path(tiny_network, [0, 1]).concat(Path(tiny_network, [4, 5]))

    def test_concat_length_additive(self, tiny_network):
        left = Path(tiny_network, [0, 1])
        right = Path(tiny_network, [1, 2])
        assert left.concat(right).length == pytest.approx(left.length + right.length)


class TestProtocols:
    def test_iteration(self, tiny_network):
        assert list(Path(tiny_network, [0, 1, 2])) == [0, 1, 2]

    def test_getitem(self, tiny_network):
        path = Path(tiny_network, [0, 1, 2])
        assert path[1] == 1
        assert path[-1] == 2

    def test_repr_short(self, tiny_network):
        assert "0->1->2" in repr(Path(tiny_network, [0, 1, 2]))

    def test_repr_long_truncates(self, small_grid):
        from repro.graph import shortest_path

        ids = small_grid.vertex_ids()
        path = shortest_path(small_grid, ids[0], ids[-1])
        if path.num_vertices > 6:
            assert "..." in repr(path)
