"""The kernel's Yen enumeration against the plain algorithm.

``CSRGraph.yen_indices`` skips the spur searches that cannot produce a
new candidate (every prefix before a path's deviation index), keeps
its ban sets in a trie, and under ``max_paths`` caps each spur search
at the cost of the last candidate it can still yield, deciding up front
the ones whose first hop already exceeds the cap.  All of it is exact:
``_plain_yen`` below is the textbook enumeration — every spur index of
every accepted path, ban sets rebuilt by scanning the accepted paths —
over the *same* uncapped ``_p2p`` searches under the same potential,
and the kernel must yield its sequence element-wise: same paths, same
order among equal costs, ``==`` on the float costs.

The same digraph strategy is the oracle for the kernel's shortest-path
trees (``sssp_parents`` against the dict ``dijkstra`` tree).
"""

from heapq import heappop, heappush
from itertools import count, islice
from math import inf
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NoPathError
from repro.graph import csr as csr_module
from repro.graph import (
    RoadCategory,
    RoadNetwork,
    csr_for,
    dijkstra,
    diversified_top_k,
    length_cost,
    travel_time_cost,
    yen_k_shortest_paths,
    yen_path_generator,
)
from repro.graph.csr import ALT_MIN_VERTICES, CSRGraph


def _plain_yen(kernel, source_id, target_id, cost=None, max_paths=None,
               use_alt=None):
    """Plain Yen over the kernel's own searches.

    Returns ``(paths, searches, owed)``: ``paths`` as ``(vertex ids,
    cost, deviation index)`` in yield order, the spur searches this
    driver ran, and the number the lean enumeration owes for the same
    processed paths, ``sum(len(p) - 1 - deviation(p))``.
    """
    s, t = kernel.index_of(source_id), kernel.index_of(target_id)
    adj = kernel._forward(cost)
    weights = kernel.edge_weights(cost)
    h = kernel._potential(cost, t, use_alt)
    first = kernel._p2p(s, t, adj, h)
    if first is None:
        raise NoPathError(source_id, target_id)
    accepted = [first[0]]
    out = [(first[0], first[1], 0)]
    seen = {tuple(first[0])}
    counter = count()
    candidates = []
    searches = owed = 0
    while max_paths is None or len(out) < max_paths:
        prev, _, deviation = out[-1]
        owed += len(prev) - 1 - deviation
        root_cost = 0.0
        positions = kernel._edge_positions(prev)
        for i in range(len(prev) - 1):
            root = prev[: i + 1]
            banned_next = {p[i + 1] for p in accepted if p[: i + 1] == root}
            searches += 1
            result = kernel._p2p(prev[i], t, adj, h, root[:-1], banned_next)
            if result is not None:
                found = root[:-1] + result[0]
                if tuple(found) not in seen:
                    seen.add(tuple(found))
                    heappush(candidates, (root_cost + result[1],
                                          next(counter), found, i))
            root_cost += weights[positions[i]]
        if not candidates:
            break
        total, _, verts, deviation = heappop(candidates)
        accepted.append(verts)
        out.append((verts, total, deviation))
    ids = kernel.ids
    return ([(tuple(ids[i] for i in verts), total, deviation)
             for verts, total, deviation in out], searches, owed)


def _spur_searches(kernel):
    return kernel.profile_counters()["yen_spur_searches"]


def _heap_pops(kernel):
    return kernel.profile_counters()["heap_pops"]


def _capped(kernel):
    return kernel.profile_counters()["yen_spur_capped"]


def _assert_exact(network, source, target, cost=None, max_paths=None,
                  use_alt=None):
    """Kernel == plain, element-wise; returns (lean, plain) search counts."""
    kernel = csr_for(network)
    plain, searches, owed = _plain_yen(kernel, source, target, cost,
                                       max_paths, use_alt)
    before = _spur_searches(kernel)
    lean = list(kernel.yen_ids(source, target, cost, max_paths=max_paths,
                               use_alt=use_alt))
    ran = _spur_searches(kernel) - before
    assert lean == [(verts, total) for verts, total, _ in plain]
    assert ran == owed <= searches
    return ran, searches


def _pairs(network, how_many, seed):
    rng = np.random.default_rng(seed)
    ids = network.vertex_ids()
    return [tuple(int(v) for v in rng.choice(ids, 2, replace=False))
            for _ in range(how_many)]


def unit_cost(edge):
    return 1.0


def detour_cost(edge):
    """A custom closure: residential streets cost half again as much."""
    factor = 1.5 if edge.category is RoadCategory.RESIDENTIAL else 1.0
    return edge.length * factor


class TestSequenceIdentity:
    @pytest.mark.parametrize("use_alt", [False, True])
    def test_unit_weight_grid_ties_included(self, small_grid, use_alt):
        """Unit weights make most of the enumeration one big tie: order
        among equal costs is all the tie-breaking counter's doing."""
        lean = plain = 0
        for source, target in _pairs(small_grid, 6, seed=1):
            ran, searches = _assert_exact(small_grid, source, target,
                                          unit_cost, max_paths=40,
                                          use_alt=use_alt)
            lean += ran
            plain += searches
        assert lean < plain

    @pytest.mark.parametrize("cost", [length_cost, travel_time_cost,
                                      detour_cost])
    def test_region_network(self, region_network, cost):
        lean = plain = 0
        for source, target in _pairs(region_network, 5, seed=2):
            ran, searches = _assert_exact(region_network, source, target,
                                          cost, max_paths=40)
            lean += ran
            plain += searches
        assert lean < plain

    def test_tiny_network_to_exhaustion(self, tiny_network):
        for source in tiny_network.vertex_ids():
            for target in tiny_network.vertex_ids():
                if source != target:
                    _assert_exact(tiny_network, source, target)

    def test_counter_flushed_when_consumer_stops_early(self, region_network):
        kernel = csr_for(region_network)
        source, target = _pairs(region_network, 1, seed=3)[0]
        plain, _, owed = _plain_yen(kernel, source, target, max_paths=7)
        before = _spur_searches(kernel)
        generator = kernel.yen_ids(source, target)
        for _ in range(7):
            next(generator)
        generator.close()
        assert _spur_searches(kernel) - before == owed
        assert owed == sum(len(verts) - 1 - deviation
                           for verts, _, deviation in plain[:-1])


@st.composite
def digraph_queries(draw, min_vertices=2, min_arc_share=0.0):
    """A small digraph with one-way streets and zero-weight edges, plus
    a query that may well be unreachable."""
    n = draw(st.integers(min_vertices, 6))
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = draw(st.lists(st.sampled_from(arcs), unique=True,
                           min_size=int(len(arcs) * min_arc_share),
                           max_size=len(arcs)))
    weights = {arc: float(draw(st.integers(0, 2))) for arc in chosen}
    network = RoadNetwork(name="hypothesis")
    for v in range(n):
        network.add_vertex(v, float(v), float(v * v))
    for u, v in chosen:
        network.add_edge(u, v, length=1.0)
    source = draw(st.integers(0, n - 1))
    target = draw(st.integers(0, n - 1).filter(lambda v: v != source))
    return network, weights, source, target


@given(digraph_queries(min_vertices=4, min_arc_share=0.5),
       st.integers(1, 8))
@settings(max_examples=150, deadline=None)
def test_random_digraphs_capped(case, max_paths):
    """Under ``max_paths`` the spur searches are capped; integer weights
    make the cap land exactly on tied and zero-cost candidates.  Dense
    draws hold enough paths for the cap to fire on many examples."""
    network, weights, source, target = case

    def cost(edge):
        return weights[edge.source, edge.target]

    try:
        _plain_yen(csr_for(network), source, target, cost, max_paths=1)
    except NoPathError:
        return
    _assert_exact(network, source, target, cost, max_paths=max_paths)


@given(digraph_queries())
@settings(max_examples=150, deadline=None)
def test_random_digraphs_to_exhaustion(case):
    network, weights, source, target = case

    def cost(edge):
        return weights[edge.source, edge.target]

    kernel = csr_for(network)
    try:
        plain, _, _ = _plain_yen(kernel, source, target, cost)
    except NoPathError:
        with pytest.raises(NoPathError):
            next(kernel.yen_ids(source, target, cost))
        return
    _assert_exact(network, source, target, cost)
    # Run to exhaustion, Yen lists every simple path exactly once.
    simple = {tuple(p) for p in nx.all_simple_paths(network.to_networkx(),
                                                    source, target)}
    assert {verts for verts, _, _ in plain} == simple
    assert len(plain) == len(simple)


def test_p2p_banned_next_covers_parallel_edges():
    """``RoadNetwork`` cannot hold parallel edges, the search can: a
    banned next vertex bans every edge to it, and without the ban the
    cheaper of two parallel edges wins."""
    network = RoadNetwork()
    for v in range(3):
        network.add_vertex(v, float(v), 0.0)
    network.add_edge(0, 1, length=1.0)
    kernel = csr_for(network)
    adj = [[(1, 5.0), (1, 2.0), (2, 9.0)], [(2, 1.0)], []]
    assert kernel._p2p(0, 2, adj) == ([0, 1, 2], 3.0)
    assert kernel._p2p(0, 2, adj, banned_next={1}) == ([0, 2], 9.0)
    assert kernel._p2p(0, 2, adj, banned_next={1, 2}) is None
    assert kernel._p2p(0, 2, adj, banned_vertices=[1]) == ([0, 2], 9.0)
    assert kernel._p2p(0, 2, adj, banned_vertices=[2]) is None


@pytest.mark.parametrize("h", [None, [4.0, 2.0, 4.0, 0.0]])
def test_p2p_bound(h):
    """The cap compares the popped key (``g``, or ``g + h``) with
    ``bound``: a path costing exactly the bound survives, one unit less
    ends the search, and an infinite bound is no bound at all."""
    network = RoadNetwork()
    for v in range(4):
        network.add_vertex(v, float(v), 0.0)
    network.add_edge(0, 1, length=1.0)
    kernel = csr_for(network)
    adj = [[(1, 2.0), (2, 1.0)], [(3, 2.0)], [(3, 4.0)], []]
    assert kernel._p2p(0, 3, adj, h, bound=4.0) == ([0, 1, 3], 4.0)
    capped = _capped(kernel)
    assert kernel._p2p(0, 3, adj, h, bound=3.0) is None
    assert _capped(kernel) == capped + 1

    def run(**bound):
        before = kernel.profile_counters()
        result = kernel._p2p(0, 3, adj, h, **bound)
        after = kernel.profile_counters()
        return result, {key: after[key] - before[key] for key in after}

    assert run(bound=inf) == run()


class TestBoundedSpurSearches:
    """Under ``max_paths`` every spur search is capped at the cost of the
    last candidate that can still be yielded: same paths, less work."""

    @pytest.mark.parametrize("cost", [length_cost, travel_time_cost,
                                      detour_cost])
    def test_region_prefix_of_unbounded(self, region_network, cost):
        kernel = csr_for(region_network)
        bounded_pops = unbounded_pops = 0
        for source, target in _pairs(region_network, 3, seed=6):
            before = _heap_pops(kernel)
            bounded = list(kernel.yen_ids(source, target, cost, max_paths=40))
            bounded_pops += _heap_pops(kernel) - before
            before = _heap_pops(kernel)
            unbounded = list(islice(kernel.yen_ids(source, target, cost), 40))
            unbounded_pops += _heap_pops(kernel) - before
            assert bounded == unbounded
        assert bounded_pops < unbounded_pops

    def test_capped_counter(self, region_network):
        kernel = csr_for(region_network)
        source, target = _pairs(region_network, 1, seed=7)[0]
        before = _capped(kernel)
        list(kernel.yen_ids(source, target, max_paths=40))
        assert _capped(kernel) > before
        before = _capped(kernel)
        list(islice(kernel.yen_ids(source, target, max_paths=None), 40))
        assert _capped(kernel) == before


class TestMaxPathsValidation:
    @pytest.mark.parametrize("backend", ["csr", "dict"])
    @pytest.mark.parametrize("max_paths", [0, -3])
    def test_generator_rejects_non_positive_bound(self, tiny_network,
                                                  backend, max_paths):
        generator = yen_path_generator(tiny_network, 0, 2,
                                       max_paths=max_paths, backend=backend)
        with pytest.raises(ValueError, match="max_paths"):
            next(generator)

    def test_kernel_rejects_non_positive_bound(self, tiny_network):
        kernel = csr_for(tiny_network)
        with pytest.raises(ValueError, match="max_paths"):
            next(kernel.yen_ids(0, 2, max_paths=0))
        assert len(list(kernel.yen_ids(0, 2, max_paths=1))) == 1


class TestLaneParityOnRegion:
    """TkDI and D-TkDI, kernel lane against the dict oracle of
    ``ksp.py``, path by path."""

    @pytest.mark.parametrize("cost", [length_cost, travel_time_cost,
                                      detour_cost])
    def test_tkdi(self, region_network, cost):
        for source, target in _pairs(region_network, 3, seed=4):
            got = yen_k_shortest_paths(region_network, source, target, 8,
                                       cost=cost, backend="csr")
            expected = yen_k_shortest_paths(region_network, source, target,
                                            8, cost=cost, backend="dict")
            assert [p.vertices for p in got] == [p.vertices for p in expected]
            assert [p.cost(cost) for p in got] == pytest.approx(
                [p.cost(cost) for p in expected], rel=1e-12)

    @pytest.mark.parametrize("cost", [length_cost, travel_time_cost,
                                      detour_cost])
    def test_d_tkdi(self, region_network, cost):
        for source, target in _pairs(region_network, 3, seed=5):
            got = diversified_top_k(region_network, source, target, 4,
                                    threshold=0.7, cost=cost,
                                    examine_limit=80, backend="csr")
            expected = diversified_top_k(region_network, source, target, 4,
                                         threshold=0.7, cost=cost,
                                         examine_limit=80, backend="dict")
            assert got.paths == expected.paths
            assert got.examined == expected.examined
            assert got.exhausted == expected.exhausted


def _delta(kernel, before):
    after = kernel.profile_counters()
    return {key: after[key] - before[key] for key in after}


def _weighted(weights):
    def cost(edge):
        return weights[edge.source, edge.target]
    return cost


class TestExactPotential:
    """Yen's searches are A* under ``h = d(., t)`` from one reverse
    search per query, wherever they used to be ALT-guided."""

    @given(digraph_queries())
    @settings(max_examples=150, deadline=None)
    def test_distance_to_target_on_random_digraphs(self, case):
        network, weights, _, target = case
        cost = _weighted(weights)
        kernel = csr_for(network)
        t = kernel.index_of(target)
        h = kernel._potential(cost, t, True)
        assert h[t] == 0.0
        edge_weights = kernel.edge_weights(cost)
        indptr, indices = kernel._indptr_list, kernel._indices_list
        for u in range(kernel.num_vertices):
            for j in range(indptr[u], indptr[u + 1]):
                assert h[u] <= edge_weights[j] + h[indices[j]]
        reaching = nx.ancestors(network.to_networkx(), target) | {target}
        assert {kernel.ids[v] for v, d in enumerate(h) if d == inf} == \
            set(network.vertex_ids()) - reaching
        for v, d in enumerate(h):
            if d != inf:
                assert d == kernel.single_source(kernel.ids[v], cost)[t]

    def test_guidance_follows_the_old_alt_rule(self, tiny_network,
                                               region_network):
        """Guided where ALT guided Yen: forced, on big networks, and on
        small ones once landmark tables exist for the cost."""
        small = CSRGraph(tiny_network)
        assert small.num_vertices < ALT_MIN_VERTICES
        assert small._potential(None, 0, None) is None
        assert small._potential(None, 0, True) is not None
        small.ensure_alt()
        assert small._potential(None, 0, None) is not None
        assert small._potential(travel_time_cost, 0, None) is None
        assert small._potential(None, 0, False) is None
        big = CSRGraph(region_network)
        assert big.num_vertices >= ALT_MIN_VERTICES
        assert big._potential(None, 0, None) is not None
        assert big._potential(None, 0, False) is None

    def test_pure_python_fallback_agrees(self, region_network, monkeypatch):
        kernel = csr_for(region_network)
        target = kernel.index_of(_pairs(region_network, 1, seed=8)[0][1])
        with_scipy = kernel._potential(travel_time_cost, target, None)
        monkeypatch.setattr(csr_module, "_HAVE_SCIPY", False)
        fallback = kernel._potential(travel_time_cost, target, None)
        assert [d == inf for d in fallback] == [d == inf for d in with_scipy]
        assert fallback == pytest.approx(with_scipy, rel=1e-12)

    def test_yen_builds_no_landmark_tables(self, region_network):
        kernel = CSRGraph(region_network)
        source, target = _pairs(region_network, 1, seed=9)[0]
        list(kernel.yen_ids(source, target, max_paths=8))
        assert kernel._alt_tables == {}
        assert kernel.profile_counters()["astar_runs"] > 0

    @pytest.mark.parametrize("cost", [length_cost, travel_time_cost,
                                      detour_cost])
    def test_one_astar_run_per_undecided_spur(self, region_network, cost):
        """Every spur search the pre-check does not decide runs exactly
        one A*, plus one for the first path; a decided one runs none."""
        kernel = csr_for(region_network)
        skipped = 0
        for source, target in _pairs(region_network, 4, seed=10):
            before = kernel.profile_counters()
            list(kernel.yen_ids(source, target, cost, max_paths=40))
            delta = _delta(kernel, before)
            assert delta["astar_runs"] == (delta["yen_spur_searches"]
                                           - delta["yen_spur_skipped"] + 1)
            assert delta["p2p_runs"] == 0
            skipped += delta["yen_spur_skipped"]
        assert skipped > 0


class TestSsspParentsOracle:
    """``sssp_parents`` against the dict ``dijkstra`` tree, ``==`` on
    distances and on parents, ties included: zero weights, integer ties,
    one-way arcs and unreachable vertices, with scipy and without."""

    @pytest.mark.parametrize("have_scipy", [True, False])
    @pytest.mark.parametrize("shift", [0.0, 1.0])
    @given(case=digraph_queries())
    @settings(max_examples=150, deadline=None)
    def test_random_digraphs(self, have_scipy, shift, case):
        """``shift`` 1 lifts the weights to 1..3: no zero weights, so
        every scipy tree comes from the distances, integer ties and
        all."""
        network, weights, source, _ = case
        cost = _weighted({arc: w + shift for arc, w in weights.items()})
        kernel = csr_for(network)
        ref_dist, ref_prev = dijkstra(network, source, cost)
        with mock.patch.object(csr_module, "_HAVE_SCIPY", have_scipy):
            dist, parent = kernel.sssp_parents(source, cost)
        ids = kernel.ids
        assert {ids[v]: d for v, d in enumerate(dist.tolist())
                if d != inf} == ref_dist
        assert {ids[v]: ids[p] for v, p in enumerate(parent.tolist())
                if p >= 0} == ref_prev
        if have_scipy and shift:
            assert kernel._tight_parents(dist, cost) is not None

    def test_absorbed_weight_runs_the_loop(self):
        """``2**53 + 1 == 2**53``, so the edge 2 -> 1 is tight between
        equal distances and 1 settles after 2 although its index is
        smaller: the least ``(dist, index)`` predecessor of 3 is 1, but
        Dijkstra reaches 3 from 2 first."""
        big = 2.0 ** 53
        weights = {(0, 2): big, (2, 1): 1.0, (1, 3): 2.0, (2, 3): 2.0}
        network = RoadNetwork()
        for v in range(4):
            network.add_vertex(v, float(v), 0.0)
        for u, v in weights:
            network.add_edge(u, v, length=1.0)
        cost = _weighted(weights)
        kernel = CSRGraph(network)
        ref_dist, ref_prev = dijkstra(network, 0, cost)
        assert ref_dist[1] == ref_dist[2] == big and ref_prev[3] == 2
        dist, parent = kernel.sssp_parents(0, cost)
        assert kernel._tight_parents(dist, cost) is None
        assert dist.tolist() == [ref_dist[v] for v in range(4)]
        assert parent.tolist() == [-1, 2, 0, 2]


@given(digraph_queries(min_vertices=3, min_arc_share=0.4),
       st.integers(1, 8), st.booleans(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_precheck_decides_only_searches_that_find_nothing(case, max_paths,
                                                          capped, guided):
    """Each spur search the pre-check decides is one ``_p2p`` would have
    ended with ``None``: same root, same bans, same bound, same
    potential."""
    network, weights, source, target = case
    cost = _weighted(weights)
    kernel = csr_for(network)
    t = kernel.index_of(target)
    adj = kernel._forward(cost)
    h = kernel._potential(cost, t, guided)
    decided = []

    def spy(adj_, potential, spur, banned_next, position, i, bound):
        assert potential == (h if guided else [0.0] * kernel.num_vertices)
        skip = CSRGraph._spur_ruled_out(adj_, potential, spur, banned_next,
                                        position, i, bound)
        if skip:
            root = [v for v, at in position.items() if at < i]
            decided.append(kernel._p2p(spur, t, adj, h, root,
                                       set(banned_next), bound))
        return skip

    kernel._spur_ruled_out = spy
    try:
        list(kernel.yen_ids(source, target, cost, use_alt=guided,
                            max_paths=max_paths if capped else None))
    except NoPathError:
        return
    finally:
        del kernel._spur_ruled_out
    assert decided == [None] * len(decided)


class TestReplicaParity:
    """A shared-memory replica is the owner's kernel: the same
    attributes and the same Yen sequence under the exact potential."""

    def test_replica_has_the_owner_attribute_set(self, region_network):
        kernel = CSRGraph(region_network)
        kernel.ensure_alt()
        replica = CSRGraph.from_shared(*kernel.shared_payload())
        assert set(vars(replica)) == set(vars(kernel))

    @pytest.mark.parametrize("cost", [length_cost, travel_time_cost])
    def test_replica_yields_the_owner_sequence(self, region_network, cost):
        kernel = CSRGraph(region_network)
        kernel.edge_weights(travel_time_cost)
        replica = CSRGraph.from_shared(*kernel.shared_payload())
        for source, target in _pairs(region_network, 4, seed=12):
            assert list(replica.yen_ids(source, target, cost,
                                        max_paths=40)) == \
                list(kernel.yen_ids(source, target, cost, max_paths=40))
        assert replica.profile_counters() == kernel.profile_counters()
