"""Backend parity: the CSR kernel must agree with the dict reference.

Property-style tests over random grid networks: for Dijkstra, ALT A*,
and Yen top-k, both backends must return
identical costs — and identical paths wherever the optimum is unique.
Equal-cost ties may legitimately resolve differently between backends,
so path identity is only asserted after re-costing both answers.
Plus: ALT admissibility (the landmark heuristic never overestimates the
true cost) and the backend seam (one kernel per sealed network).
"""

import pickle
import re
import sys
import threading
from collections import OrderedDict
from pathlib import Path as FilePath

import numpy as np
import pytest

from repro.errors import NoPathError, VertexNotFoundError
from repro.graph import (
    RoadNetwork,
    csr_for,
    dijkstra,
    grid_network,
    shortest_path,
    shortest_path_cost,
    travel_time_cost,
    use_routing_backend,
    yen_k_shortest_paths,
)
from repro.graph import csr as csr_module
from repro.graph.csr import (
    _PROFILE_KEYS,
    CSRGraph,
    resolve_backend,
    set_routing_backend,
)
from repro.graph.diversified import diversified_top_k


def _distances(kernel, source, cost=None):
    """Reachable-vertex distances from ``source`` keyed by vertex id."""
    row = kernel.single_source(source, cost)
    return {kernel.ids[i]: float(d) for i, d in enumerate(row)
            if d != np.inf}


def _alt_bounds(kernel, target, cost=None):
    """The ALT lower bounds on d(v, target), by CSR index."""
    kernel.ensure_alt(cost)
    return np.asarray(kernel._alt_heuristic(kernel._weight_key(cost),
                                            kernel.index_of(target)))


def _random_pairs(network, count, seed):
    rng = np.random.default_rng(seed)
    ids = network.vertex_ids()
    return [tuple(int(v) for v in rng.choice(ids, 2, replace=False))
            for _ in range(count)]


@pytest.fixture(scope="module", params=[(6, 9, 3), (9, 7, 11), (12, 12, 29)])
def random_grid(request):
    rows, cols, seed = request.param
    return grid_network(rows, cols, seed=seed)


class TestSingleSourceParity:
    def test_distances_match_dict_backend(self, random_grid):
        kernel = csr_for(random_grid)
        for source in random_grid.vertex_ids()[:5]:
            expected, _ = dijkstra(random_grid, source)
            got = _distances(kernel, source)
            assert set(got) == set(expected)
            for vertex, distance in expected.items():
                assert got[vertex] == pytest.approx(distance, rel=1e-12)

    def test_multi_source_matches_single_source(self, random_grid):
        kernel = csr_for(random_grid)
        sources = random_grid.vertex_ids()[:4]
        stacked = kernel.multi_source(sources)
        assert stacked.shape == (4, random_grid.num_vertices)
        for row, source in zip(stacked, sources):
            np.testing.assert_allclose(row, kernel.single_source(source),
                                       atol=0, rtol=0)

    def test_multi_source_reverse_matches_transposed_graph(self, random_grid):
        kernel = csr_for(random_grid)
        sources = random_grid.vertex_ids()[:3]
        reverse_rows = kernel.multi_source(sources, reverse=True)
        # d_rev(s -> v) on the transposed graph equals d(v -> s).
        for row, source in zip(reverse_rows, sources):
            for target in random_grid.vertex_ids()[::7]:
                direct = kernel.shortest_path_cost(target, source)
                assert row[kernel.index_of(target)] == pytest.approx(
                    direct, rel=1e-9)

    def test_multi_source_empty(self, random_grid):
        kernel = csr_for(random_grid)
        assert kernel.multi_source([]).shape == (0, random_grid.num_vertices)

    def test_travel_time_distances_match(self, random_grid):
        kernel = csr_for(random_grid)
        source = random_grid.vertex_ids()[1]
        expected, _ = dijkstra(random_grid, source, cost=travel_time_cost)
        got = _distances(kernel, source, travel_time_cost)
        for vertex, distance in expected.items():
            assert got[vertex] == pytest.approx(distance, rel=1e-12)

    def test_custom_cost_function(self, random_grid):
        def hilly(edge):
            return edge.length * (1.0 + 0.1 * (edge.target % 3))

        kernel = csr_for(random_grid)
        source = random_grid.vertex_ids()[0]
        expected, _ = dijkstra(random_grid, source, cost=hilly)
        got = _distances(kernel, source, hilly)
        for vertex, distance in expected.items():
            assert got[vertex] == pytest.approx(distance, rel=1e-12)


class TestPointToPointParity:
    def test_shortest_path_costs_match(self, random_grid):
        for source, target in _random_pairs(random_grid, 20, seed=1):
            with use_routing_backend("dict"):
                reference = shortest_path(random_grid, source, target)
            result = shortest_path(random_grid, source, target)
            assert result.length == pytest.approx(reference.length, rel=1e-12)
            assert result.source == source and result.target == target
            # Identical paths whenever the optimum is unique; on a tie
            # both answers must still cost the same (checked above).
            if result.vertices != reference.vertices:
                assert result.length == pytest.approx(reference.length)

    def test_astar_costs_match(self, random_grid):
        """With landmark tables built, point-to-point queries run ALT A*
        and must still cost what the dict reference's Dijkstra costs."""
        kernel = csr_for(random_grid)
        kernel.ensure_alt()
        for source, target in _random_pairs(random_grid, 15, seed=3):
            reference = shortest_path(random_grid, source, target, backend="dict")
            vertices, cost = kernel.shortest_path_ids(source, target)
            assert cost == pytest.approx(reference.length, rel=1e-12)
            assert vertices[0] == source and vertices[-1] == target

    def test_shortest_path_cost_matches(self, random_grid):
        for source, target in _random_pairs(random_grid, 10, seed=4):
            with use_routing_backend("dict"):
                reference = shortest_path_cost(random_grid, source, target)
            assert shortest_path_cost(random_grid, source, target) == \
                pytest.approx(reference, rel=1e-12)


class TestYenParity:
    def test_topk_costs_match(self, random_grid):
        for source, target in _random_pairs(random_grid, 6, seed=5):
            with use_routing_backend("dict"):
                reference = yen_k_shortest_paths(random_grid, source, target, 6)
            result = yen_k_shortest_paths(random_grid, source, target, 6)
            assert len(result) == len(reference)
            for got, expected in zip(result, reference):
                assert got.length == pytest.approx(expected.length, rel=1e-9)
                if got.vertices != expected.vertices:  # equal-cost tie
                    assert got.length == pytest.approx(expected.length)

    def test_paths_are_simple_ordered_and_unique(self, random_grid):
        source, target = _random_pairs(random_grid, 1, seed=6)[0]
        paths = yen_k_shortest_paths(random_grid, source, target, 8)
        lengths = [p.length for p in paths]
        assert lengths == sorted(lengths)
        assert len({p.vertices for p in paths}) == len(paths)
        for path in paths:
            assert path.is_simple()

    def test_travel_time_topk(self, random_grid):
        source, target = _random_pairs(random_grid, 1, seed=7)[0]
        with use_routing_backend("dict"):
            reference = yen_k_shortest_paths(random_grid, source, target, 4,
                                             cost=travel_time_cost)
        result = yen_k_shortest_paths(random_grid, source, target, 4,
                                      cost=travel_time_cost)
        assert [p.travel_time for p in result] == pytest.approx(
            [p.travel_time for p in reference], rel=1e-9)

    def test_diversified_matches_reference_selection(self, random_grid):
        source, target = _random_pairs(random_grid, 1, seed=8)[0]
        result = diversified_top_k(random_grid, source, target, k=4,
                                   threshold=0.7, examine_limit=60)
        reference = diversified_top_k(random_grid, source, target, k=4,
                                      threshold=0.7, examine_limit=60,
                                      backend="dict")
        assert len(result) == len(reference)
        for got, expected in zip(result, reference):
            assert got.length == pytest.approx(expected.length, rel=1e-9)


class TestAltAdmissibility:
    def test_lower_bounds_never_overestimate(self, random_grid):
        kernel = csr_for(random_grid)
        rng = np.random.default_rng(13)
        ids = random_grid.vertex_ids()
        for target in (int(v) for v in rng.choice(ids, 3, replace=False)):
            bounds = _alt_bounds(kernel, target)
            true_to_target = {
                vertex: dist for vertex, dist
                in _reverse_distances(random_grid, target).items()
            }
            for vertex, true_cost in true_to_target.items():
                assert bounds[kernel.index_of(vertex)] <= true_cost + 1e-9

    def test_travel_time_bounds_admissible(self, random_grid):
        kernel = csr_for(random_grid)
        target = random_grid.vertex_ids()[-1]
        bounds = _alt_bounds(kernel, target, travel_time_cost)
        truth = _reverse_distances(random_grid, target, travel_time_cost)
        for vertex, true_cost in truth.items():
            assert bounds[kernel.index_of(vertex)] <= true_cost + 1e-9


    def test_stacked_table_matches_the_two_table_formula(self):
        """One-way chains: every landmark misses the vertices behind it
        (and the second chain entirely), so the tables hold infinities.
        The bounds from the one ``(2L, n)`` table are ``==`` to the
        bounds from separate to/from tables, where non-finite
        differences were zeroed before the max."""
        network = _one_way_chains()
        for seed in range(3):
            kernel = CSRGraph(network)
            kernel.ensure_alt(num_landmarks=4, rng=seed)
            assert np.isinf(kernel._alt_tables["length"][0]).any()
            for target in range(kernel.num_vertices):
                assert kernel._alt_heuristic("length", target).tolist() == \
                    _two_table_bounds(kernel, target).tolist()

    @pytest.mark.parametrize("network_kind", ["chains", "grid"])
    def test_astar_matches_the_previous_bound(self, network_kind):
        """A* guided by the bound read through the ``memoryview`` returns
        ``==`` ``(path, cost)`` to A* guided by the previous formula's
        list, on the one-way chains (tables with infinities, many
        unreachable pairs) and on a random grid."""
        network = (_one_way_chains() if network_kind == "chains"
                   else grid_network(9, 11, seed=23))
        kernel = CSRGraph(network)
        kernel.ensure_alt(num_landmarks=4, rng=1)
        adj = kernel._forward(None)
        rng = np.random.default_rng(29)
        n = kernel.num_vertices
        reached = 0
        for source, target in rng.integers(0, n, size=(60, 2)).tolist():
            bound = kernel._alt_heuristic("length", target)
            assert isinstance(bound, memoryview)
            previous = _two_table_bounds(kernel, target).tolist()
            got = kernel._p2p(source, target, adj, bound)
            assert got == kernel._p2p(source, target, adj, previous)
            reached += got is not None
        assert reached > 0


def _one_way_chains():
    """Two one-way chains (0..39 and 40..49) with random forward skips."""
    rng = np.random.default_rng(5)
    network = RoadNetwork()
    for v in range(50):
        network.add_vertex(v, float(v), 0.0)
    for first, end in ((0, 40), (40, 50)):
        for v in range(first, end - 1):
            network.add_edge(v, v + 1, length=float(rng.uniform(1, 9)))
            if v + 5 < end:
                network.add_edge(v, v + 5, length=float(rng.uniform(5, 40)))
    return network


def _two_table_bounds(kernel, target):
    """The ALT bound towards ``target`` from separate to/from tables,
    non-finite differences zeroed before the max."""
    table = kernel._alt_tables["length"][0]
    count = table.shape[0] // 2
    to_l = table[:count].T          # d(v -> L_j), -inf where unreachable
    from_l = -table[count:].T       # d(L_j -> v), inf where unreachable
    with np.errstate(invalid="ignore"):
        a = to_l - to_l[target]
        b = from_l[target] - from_l
    a[~np.isfinite(a)] = 0.0
    b[~np.isfinite(b)] = 0.0
    return np.maximum(np.maximum(a, b).max(axis=1), 0.0)


def _reverse_distances(network, target, cost=None):
    """d(v, target) for all v, via one dict-backend Dijkstra per vertex
    would be O(n^2); instead run forward Dijkstra per source over a
    small sample."""
    rng = np.random.default_rng(17)
    sample = rng.choice(network.vertex_ids(), 12, replace=False)
    out = {}
    for source in (int(v) for v in sample):
        if source == target:
            continue
        dist, _ = dijkstra(network, source, target=target)
        if target in dist:
            out[source] = dist[target]
    return out


class TestErrorsAndEdgeCases:
    def test_missing_vertex_raises(self, random_grid):
        kernel = csr_for(random_grid)
        with pytest.raises(VertexNotFoundError):
            kernel.single_source(10**9)
        with pytest.raises(VertexNotFoundError):
            kernel.shortest_path_ids(0, 10**9)

    def test_same_endpoints_raise_no_path(self, random_grid):
        kernel = csr_for(random_grid)
        with pytest.raises(NoPathError):
            kernel.shortest_path_ids(0, 0)
        with pytest.raises(NoPathError):
            list(kernel.yen_ids(0, 0))

    def test_unreachable_target_raises(self):
        net = RoadNetwork()
        for vid in range(4):
            net.add_vertex(vid, float(vid) * 100.0, 0.0)
        net.add_edge(0, 1)
        net.add_edge(2, 3)  # two disconnected components
        kernel = csr_for(net)
        with pytest.raises(NoPathError):
            kernel.shortest_path_ids(0, 3)
        with pytest.raises(NoPathError):
            list(kernel.yen_ids(0, 3))

    def test_negative_custom_cost_rejected(self, random_grid):
        kernel = csr_for(random_grid)
        with pytest.raises(ValueError):
            kernel.single_source(0, cost=lambda edge: -edge.length)


class TestBackendSeam:
    def test_csr_for_caches_per_network(self, random_grid):
        assert csr_for(random_grid) is csr_for(random_grid)

    def test_a_pickled_copy_builds_its_own_equal_kernel(self, random_grid):
        """What a pool worker does with the network it is sent: the
        copy is sealed with the same fingerprint, gets a kernel of its
        own, and that kernel has the owner's CSR order, so edge
        positions mean the same in both processes."""
        owner = csr_for(random_grid)
        owner.ensure_alt()
        copy = pickle.loads(pickle.dumps(random_grid))
        kernel = csr_for(copy)
        assert kernel is not owner
        assert kernel is csr_for(copy)
        assert kernel.fingerprint == copy.fingerprint == owner.fingerprint
        assert np.array_equal(kernel.indptr, owner.indptr)
        assert np.array_equal(kernel.indices, owner.indices)
        assert np.array_equal(kernel.weight_array(travel_time_cost),
                              owner.weight_array(travel_time_cost))
        assert kernel._alt_tables == {}

    def test_unknown_backend_rejected(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            set_routing_backend("gpu")
        with pytest.raises(ConfigError):
            set_routing_backend("ch")
        with pytest.raises(ConfigError):
            resolve_backend("fancy")

    def test_context_manager_restores(self):
        from repro.graph import get_routing_backend
        before = get_routing_backend()
        with use_routing_backend("dict"):
            assert get_routing_backend() == "dict"
            assert resolve_backend() == "dict"
        assert get_routing_backend() == before

    def test_kernel_reports_shape(self, random_grid):
        kernel = csr_for(random_grid)
        assert kernel.num_vertices == random_grid.num_vertices
        assert kernel.num_edges == random_grid.num_edges
        assert isinstance(kernel, CSRGraph)
        assert len(kernel.indptr) == kernel.num_vertices + 1
        assert len(kernel.indices) == kernel.num_edges


class TestChunkedMultiSource:
    """Bounded-memory multi-source sweeps: chunking must be invisible
    in the result, and slab sizes must follow the vertex count."""

    def test_chunked_equals_unchunked(self, random_grid):
        kernel = csr_for(random_grid)
        sources = random_grid.vertex_ids()[:5]
        full = kernel.multi_source(sources)
        for chunk_size in (1, 2, len(sources), len(sources) + 7):
            chunked = kernel.multi_source(sources, chunk_size=chunk_size)
            assert np.array_equal(chunked, full)

    def test_chunked_reverse_equals_unchunked(self, random_grid):
        kernel = csr_for(random_grid)
        sources = random_grid.vertex_ids()[:4]
        full = kernel.multi_source(sources, reverse=True)
        chunked = kernel.multi_source(sources, reverse=True, chunk_size=2)
        assert np.array_equal(chunked, full)

    def test_iter_multi_source_slabs(self, random_grid):
        kernel = csr_for(random_grid)
        sources = random_grid.vertex_ids()[:5]
        full = kernel.multi_source(sources)
        starts = []
        for start, rows in kernel.iter_multi_source(sources, None,
                                                    chunk_size=2):
            starts.append(start)
            assert rows.shape[1] == kernel.num_vertices
            assert np.array_equal(rows, full[start:start + rows.shape[0]])
        assert starts == [0, 2, 4]

    def test_default_chunk_size_tracks_vertex_count(self, random_grid):
        from repro.graph.csr import MULTI_SOURCE_SLAB_ELEMENTS

        kernel = csr_for(random_grid)
        expected = max(1, MULTI_SOURCE_SLAB_ELEMENTS // kernel.num_vertices)
        assert kernel.default_chunk_size() == expected

    def test_chunk_size_validated(self, random_grid):
        kernel = csr_for(random_grid)
        with pytest.raises(ValueError):
            kernel.multi_source(random_grid.vertex_ids()[:2], chunk_size=0)


class TestSsspParents:
    """The full-settle parent tree must reproduce the dict reference
    exactly — same distances, same tie-break, same parents — because
    batched route reconstructions ride it."""

    def test_tree_matches_dict_dijkstra(self, random_grid):
        kernel = csr_for(random_grid)
        for source in random_grid.vertex_ids()[:3]:
            ref_dist, ref_prev = dijkstra(random_grid, source)
            dist, parent = kernel.sssp_parents(source)
            for vid in random_grid.vertex_ids():
                idx = kernel.index_of(vid)
                if vid in ref_dist:
                    assert dist[idx] == pytest.approx(ref_dist[vid],
                                                      rel=1e-12)
                else:
                    assert not np.isfinite(dist[idx])
                if vid in ref_prev:
                    assert kernel.ids[parent[idx]] == ref_prev[vid]
                else:
                    assert parent[idx] == -1

    def test_parent_edges_are_tight(self, random_grid):
        kernel = csr_for(random_grid)
        source = random_grid.vertex_ids()[0]
        dist, parent = kernel.sssp_parents(source)
        weights = np.asarray(kernel.edge_weights(None), dtype=np.float64)
        for idx in range(kernel.num_vertices):
            p = parent[idx]
            if p < 0:
                continue
            lo, hi = int(kernel.indptr[p]), int(kernel.indptr[p + 1])
            positions = [pos for pos in range(lo, hi)
                         if kernel.indices[pos] == idx]
            assert positions, "parent edge must exist in the CSR"
            assert dist[p] + weights[positions[0]] == pytest.approx(
                dist[idx], rel=1e-12)

    def test_source_is_its_own_root(self, random_grid):
        kernel = csr_for(random_grid)
        source = random_grid.vertex_ids()[0]
        dist, parent = kernel.sssp_parents(source)
        idx = kernel.index_of(source)
        assert dist[idx] == 0.0
        assert parent[idx] == -1


class _RivalInWindow(OrderedDict):
    """An LRU memo that, right after the caller's next insertion, lets a
    rival thread run before the caller reaches its ``move_to_end``.  The
    rival gets half a second: enough to finish on any host unless a lock
    keeps it waiting, in which case it finishes once the caller is
    done."""

    def __init__(self, rival):
        self.rival = rival
        self.threads = []
        super().__init__()

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        rival, self.rival = self.rival, None
        if rival is not None:
            thread = threading.Thread(target=rival)
            thread.start()
            thread.join(timeout=0.5)
            self.threads.append(thread)

    def join(self):
        for thread in self.threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()


class TestMemoRaces:
    """The kernel's custom-weight LRU is filled from engine worker
    threads without the search lock; a rival thread evicting a key
    between an insertion and its ``move_to_end`` must not raise
    ``KeyError``."""

    def test_custom_weights_survive_a_rival_eviction(self, monkeypatch):
        monkeypatch.setattr(csr_module, "_CUSTOM_WEIGHT_CAP", 1)
        network = grid_network(20, 20, seed=3)
        kernel = CSRGraph(network)

        def doubled(edge):
            return 2.0 * edge.length

        def tripled(edge):
            return 3.0 * edge.length

        rival_got = []
        memo = _RivalInWindow(
            lambda: rival_got.append(kernel.edge_weights(tripled)))
        kernel._custom_order = memo
        weights = kernel.edge_weights(doubled)
        memo.join()
        assert weights == [2.0 * w for w in kernel.edge_weights()]
        assert rival_got == [[3.0 * w for w in kernel.edge_weights()]]
        # The LRU and the weight lists it owns still agree: the evicted
        # key took its weights with it.
        assert list(memo) == [tripled]
        assert set(kernel._weight_lists) == {"length", "travel_time",
                                             tripled}


    def test_threaded_memo_hammer(self, monkeypatch):
        """More threads than cores and a shortened switch interval over
        the custom-weight memo, held to two entries so every call
        evicts."""
        monkeypatch.setattr(csr_module, "_CUSTOM_WEIGHT_CAP", 2)
        kernel = CSRGraph(grid_network(20, 20, seed=3))
        costs = [lambda edge, f=float(f): f * edge.length for f in range(4)]
        errors = []

        def hammer(worker):
            try:
                for call in range(150):
                    kernel.edge_weights(costs[(worker + call) % 4])
            except Exception as error:  # reported by the assert below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(worker,))
                       for worker in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(kernel._custom_order) <= 2
        assert set(kernel._weight_lists) - {"length", "travel_time"} == \
            set(kernel._custom_order)


class TestProfileContract:
    def test_routing_counter_keys_match_the_observability_catalogue(
            self, random_grid):
        """The ``kernel.routing.*`` row of docs/observability.md names
        exactly the keys ``profile_counters()`` returns."""
        catalogue = FilePath(__file__).resolve().parents[2] / "docs" \
            / "observability.md"
        row = next(line for line in catalogue.read_text().splitlines()
                   if line.startswith("| `kernel.routing.*`"))
        documented = set(re.findall(r"`([^`]+)`", row.split("|")[3]))
        kernel = csr_for(random_grid)
        source, target = _random_pairs(random_grid, 1, seed=5)[0]
        list(kernel.yen_ids(source, target, max_paths=4))
        assert documented == set(_PROFILE_KEYS)
        assert set(kernel.profile_counters()) == documented
