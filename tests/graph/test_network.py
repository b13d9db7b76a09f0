"""Unit tests for RoadNetwork structure and connectivity."""

import math

import pytest

from repro.errors import EdgeNotFoundError, GraphError, VertexNotFoundError
from repro.graph import RoadCategory, RoadNetwork
from repro.graph.builders import NetworkDraft
from repro.graph.network import kosaraju


@pytest.fixture
def empty() -> RoadNetwork:
    return RoadNetwork(name="empty")


@pytest.fixture
def pair() -> RoadNetwork:
    net = RoadNetwork()
    net.add_vertex(0, 0.0, 0.0)
    net.add_vertex(1, 300.0, 400.0)
    return net


class TestVertices:
    def test_add_and_lookup(self, pair):
        v = pair.vertex(0)
        assert (v.x, v.y) == (0.0, 0.0)

    def test_duplicate_vertex_rejected(self, pair):
        with pytest.raises(GraphError):
            pair.add_vertex(0, 1.0, 1.0)

    @pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.nan),
                                      (math.inf, 0.0), (0.0, -math.inf)])
    def test_non_finite_position_rejected(self, empty, x, y):
        with pytest.raises(GraphError, match="non-finite"):
            empty.add_vertex(0, x, y)
        assert empty.num_vertices == 0

    def test_missing_vertex_raises(self, pair):
        with pytest.raises(VertexNotFoundError):
            pair.vertex(99)

    def test_contains(self, pair):
        assert 0 in pair
        assert 99 not in pair

    def test_counts(self, pair):
        assert pair.num_vertices == 2
        assert pair.num_edges == 0

    def test_euclidean(self, pair):
        assert pair.euclidean(0, 1) == pytest.approx(500.0)

    def test_vertex_distance_to(self, pair):
        assert pair.vertex(0).distance_to(pair.vertex(1)) == pytest.approx(500.0)

class TestEdges:
    def test_add_edge_defaults(self, pair):
        edge = pair.add_edge(0, 1)
        assert edge.length == pytest.approx(500.0)
        assert edge.speed == RoadCategory.LOCAL.default_speed

    def test_travel_time(self, pair):
        edge = pair.add_edge(0, 1, length=1000.0, speed=36.0)
        assert edge.travel_time == pytest.approx(100.0)  # 36 km/h == 10 m/s

    def test_category_speed_defaults(self):
        assert RoadCategory.MOTORWAY.default_speed > RoadCategory.RESIDENTIAL.default_speed

    def test_add_edge_missing_vertex(self, pair):
        with pytest.raises(VertexNotFoundError):
            pair.add_edge(0, 42)

    def test_self_loop_rejected(self, pair):
        with pytest.raises(GraphError):
            pair.add_edge(0, 0)

    def test_duplicate_edge_rejected(self, pair):
        pair.add_edge(0, 1)
        with pytest.raises(GraphError):
            pair.add_edge(0, 1)

    def test_antiparallel_edges_allowed(self, pair):
        pair.add_edge(0, 1)
        pair.add_edge(1, 0)
        assert pair.num_edges == 2

    def test_two_way_helper(self, pair):
        forward, backward = pair.add_two_way(0, 1)
        assert forward.length == backward.length
        assert pair.has_edge(0, 1) and pair.has_edge(1, 0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_length_rejected(self, pair, value):
        with pytest.raises(GraphError, match="length"):
            pair.add_edge(0, 1, length=value)
        assert pair.num_edges == 0

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_speed_rejected(self, pair, value):
        with pytest.raises(GraphError, match="speed"):
            pair.add_edge(0, 1, length=1.0, speed=value)
        assert pair.num_edges == 0

    def test_non_positive_length_rejected(self, pair):
        with pytest.raises(GraphError):
            pair.add_edge(0, 1, length=0.0)

    def test_non_positive_speed_rejected(self, pair):
        with pytest.raises(GraphError):
            pair.add_edge(0, 1, length=10.0, speed=-5.0)

    def test_colocated_needs_explicit_length(self):
        net = RoadNetwork()
        net.add_vertex(0, 0.0, 0.0)
        net.add_vertex(1, 0.0, 0.0)
        with pytest.raises(GraphError):
            net.add_edge(0, 1)
        net.add_edge(0, 1, length=5.0)

    def test_edge_lookup_missing(self, pair):
        with pytest.raises(EdgeNotFoundError):
            pair.edge(0, 1)


class TestAdjacency:
    def test_out_in_edges(self, tiny_network):
        outs = {e.target for e in tiny_network.out_edges(0)}
        assert outs == {1, 2, 3}
        ins = set(tiny_network.predecessors(2))
        assert ins == {0, 1, 5}

    def test_successors_predecessors(self, tiny_network):
        assert set(tiny_network.successors(4)) == {1, 3, 5}
        assert set(tiny_network.predecessors(0)) == {1, 3}

    def test_degree(self, tiny_network):
        # vertex 4: two-way to 1, 3, 5 -> 3 out + 3 in
        assert tiny_network.degree(4) == 6

    def test_adjacency_missing_vertex(self, tiny_network):
        with pytest.raises(VertexNotFoundError):
            tiny_network.out_edges(404)
        with pytest.raises(VertexNotFoundError):
            tiny_network.successors(404)

    def test_out_edges_returns_copy(self, tiny_network):
        edges = tiny_network.out_edges(0)
        edges.clear()
        assert tiny_network.out_edges(0)

class TestConnectivity:
    def test_tiny_is_strongly_connected(self, tiny_network):
        assert tiny_network.is_strongly_connected()

    def test_one_way_breaks_connectivity(self):
        net = RoadNetwork()
        net.add_vertex(0, 0, 0)
        net.add_vertex(1, 1, 0)
        net.add_edge(0, 1, length=1.0)
        assert not net.is_strongly_connected()
        components = net.strongly_connected_components()
        assert sorted(len(c) for c in components) == [1, 1]

    def test_scc_matches_networkx(self, small_grid):
        import networkx as nx

        ours = {frozenset(c) for c in small_grid.strongly_connected_components()}
        theirs = {frozenset(c) for c in
                  nx.strongly_connected_components(small_grid.to_networkx())}
        assert ours == theirs

    def test_largest_scc_subgraph(self):
        draft = NetworkDraft("dangling")
        for i in range(4):
            draft.add_vertex(10 * i, float(i), 0.0)
        draft.add_two_way(0, 10, length=1.0)
        draft.add_two_way(10, 20, length=1.0)
        draft.add_edge(20, 30, length=1.0)  # 30 dangles (no way back)
        largest = draft.build()
        assert largest.vertex_ids() == [0, 1, 2]
        assert [(v.x, v.y) for v in largest.vertices()] == [
            (0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        assert largest.num_edges == 4 and not largest.has_edge(2, 3)
        assert largest.is_strongly_connected()

    def test_equal_size_components_resolve_in_kosaraju_order(self):
        """Two disjoint two-way pairs: the cut keeps the one Kosaraju
        lists first, which is the pair inserted last."""
        draft = NetworkDraft("twins")
        for i in range(4):
            draft.add_vertex(i, float(i), 0.0)
        draft.add_two_way(0, 1, length=1.0)
        draft.add_two_way(2, 3, length=2.0)
        kept = draft.build()
        assert [(v.x, v.y) for v in kept.vertices()] == [(2.0, 0.0), (3.0, 0.0)]
        assert kept.edge(0, 1).length == 2.0

        whole = draft.build(largest_scc=False)
        first = max(whole.strongly_connected_components(), key=len)
        assert first == {2, 3}
        assert kosaraju({0: [1], 1: [0], 2: [3], 3: [2]},
                        {0: [1], 1: [0], 2: [3], 3: [2]}) == [{2, 3}, {0, 1}]

    def test_empty_network_connected(self, empty):
        assert empty.is_strongly_connected()

    def test_relabelled_dense_ids(self):
        net = RoadNetwork()
        net.add_vertex(10, 0, 0)
        net.add_vertex(20, 1, 0)
        net.add_two_way(10, 20, length=1.0)
        renamed, mapping = net.relabelled()
        assert set(renamed.vertex_ids()) == {0, 1}
        assert mapping == {10: 0, 20: 1}
        assert renamed.has_edge(0, 1) and renamed.has_edge(1, 0)

    def test_relabelled_preserves_attributes(self, tiny_network):
        renamed, mapping = tiny_network.relabelled()
        original = tiny_network.edge(0, 2)
        copy = renamed.edge(mapping[0], mapping[2])
        assert copy.length == original.length
        assert copy.category == original.category


class TestValidationInterop:
    def test_to_networkx_preserves_counts(self, tiny_network):
        g = tiny_network.to_networkx()
        assert g.number_of_nodes() == tiny_network.num_vertices
        assert g.number_of_edges() == tiny_network.num_edges

    def test_to_networkx_edge_attributes(self, tiny_network):
        g = tiny_network.to_networkx()
        data = g.get_edge_data(0, 2)
        assert data["length"] == 250.0
        assert data["category"] == "motorway"

    def test_repr(self, tiny_network):
        assert "tiny" in repr(tiny_network)
        assert "vertices=6" in repr(tiny_network)


class TestFingerprint:
    def _net(self):
        net = RoadNetwork(name="fp")
        net.add_vertex(0, 0.0, 0.0)
        net.add_vertex(1, 100.0, 0.0)
        net.add_vertex(2, 200.0, 0.0)
        net.add_two_way(0, 1)
        net.add_two_way(1, 2)
        return net

    def test_stable_on_a_static_network(self):
        net = self._net()
        first = net.fingerprint
        assert net.fingerprint == first
        assert net.fingerprint is net.fingerprint  # cached, not recomputed

    def test_reflects_counts(self):
        net = self._net()
        vertices, edges, digest = net.fingerprint
        assert vertices == net.num_vertices
        assert edges == net.num_edges
        assert isinstance(digest, str) and digest

    def test_changes_with_an_extra_edge(self):
        net = self._net()
        extra = self._net()
        extra.add_edge(0, 2, length=250.0)
        assert extra.fingerprint != net.fingerprint
        assert self._net().fingerprint == net.fingerprint

    def test_changes_on_vertex_addition(self):
        net = self._net()
        extra = self._net()
        extra.add_vertex(99, 500.0, 500.0)
        assert extra.fingerprint != net.fingerprint

    def test_sensitive_to_edge_weights(self):
        a = self._net()
        b = self._net()
        a.add_edge(0, 2, length=250.0)
        b.add_edge(0, 2, length=251.0)
        assert a.fingerprint != b.fingerprint


class TestSeal:
    """The first derived read seals a network against further changes."""

    def _net(self):
        net = RoadNetwork(name="sealed")
        net.add_vertex(0, 0.0, 0.0)
        net.add_vertex(1, 100.0, 0.0)
        net.add_vertex(2, 200.0, 0.0)
        net.add_edge(0, 1)
        return net

    def _assert_sealed(self, net):
        shape = (net.num_vertices, net.num_edges)
        with pytest.raises(GraphError, match="sealed"):
            net.add_vertex(3, 300.0, 0.0)
        with pytest.raises(GraphError, match="sealed"):
            net.add_edge(1, 2)
        with pytest.raises(GraphError, match="sealed"):
            net.add_two_way(1, 2)
        assert (net.num_vertices, net.num_edges) == shape

    def test_add_after_fingerprint_is_refused(self):
        net = self._net()
        before = net.fingerprint
        self._assert_sealed(net)
        assert net.fingerprint == before

    def test_add_after_csr_build_is_refused(self):
        from repro.graph.csr import csr_for

        net = self._net()
        kernel = csr_for(net)
        self._assert_sealed(net)
        assert csr_for(net) is kernel

    def test_pickled_network_stays_sealed(self):
        import pickle

        net = self._net()
        fingerprint = net.fingerprint
        copy = pickle.loads(pickle.dumps(net))
        assert copy.fingerprint == fingerprint
        self._assert_sealed(copy)
