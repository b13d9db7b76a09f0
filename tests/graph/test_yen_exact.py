"""The kernel's Yen enumeration against the plain algorithm.

``CSRGraph.yen_indices`` skips the spur searches that cannot produce a
new candidate (every prefix before a path's deviation index), keeps
its ban sets in a trie, and under ``max_paths`` caps each spur search
at the cost of the last candidate it can still yield, deciding up front
the ones whose first hop already exceeds the cap.  The others run only
when their spur, queued under a lower bound on its path's cost,
reaches the top of the candidate heap.  All of it is exact:
``_plain_yen`` below is the textbook enumeration — every spur index of
every accepted path, ban sets rebuilt by scanning the accepted paths —
over the *same* uncapped ``_p2p`` searches under the same potential,
and the kernel must yield its sequence element-wise: same paths, same
order among equal costs, ``==`` on the float costs.

The same digraph strategy is the oracle for the kernel's shortest-path
trees (``sssp_parents`` against the dict ``dijkstra`` tree).
"""

import pickle
from heapq import heappop, heappush
from itertools import count, islice
from math import inf

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
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
from repro.graph.csr import CSRGraph


def _plain_yen(kernel, source_id, target_id, cost=None, max_paths=None):
    """Plain Yen over the kernel's own searches.

    Returns ``(paths, searches, owed)``: ``paths`` as ``(vertex ids,
    cost, deviation index)`` in yield order, the spur searches this
    driver ran, and the number the lean enumeration owes for the same
    processed paths, ``sum(len(p) - 1 - deviation(p))``.
    """
    s, t = kernel.index_of(source_id), kernel.index_of(target_id)
    adj = kernel._forward(cost)
    weights = kernel.edge_weights(cost)
    h = kernel._potential(cost, t)
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


def _assert_exact(network, source, target, cost=None, max_paths=None):
    """Kernel == plain, element-wise; returns (lean, plain) search counts."""
    kernel = csr_for(network)
    plain, searches, owed = _plain_yen(kernel, source, target, cost,
                                       max_paths)
    before = _spur_searches(kernel)
    lean = list(kernel.yen_ids(source, target, cost, max_paths=max_paths))
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
    @pytest.mark.parametrize("landmarks", [False, True])
    def test_unit_weight_grid_ties_included(self, small_grid, landmarks):
        """Unit weights make most of the enumeration one big tie: order
        among equal costs is all the tie-breaking counter's doing, with
        or without landmark tables on the kernel."""
        if landmarks:
            csr_for(small_grid).ensure_alt(unit_cost)
        lean = plain = 0
        for source, target in _pairs(small_grid, 6, seed=1):
            ran, searches = _assert_exact(small_grid, source, target,
                                          unit_cost, max_paths=40)
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
def digraph_queries(draw, min_vertices=2, min_arc_share=0.0, parallel=False):
    """A small digraph with one-way streets and zero-weight edges, plus
    a query that may well be unreachable.

    ``parallel`` doubles some arcs ``u -> v`` with a two-hop arc pair
    ``u -> m -> v`` through a fresh vertex, of the same integer total:
    every path over such an arc ties with its twin over the pair, so
    the order among equal costs decides most of the enumeration.
    """
    n = draw(st.integers(min_vertices, 6))
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = draw(st.lists(st.sampled_from(arcs), unique=True,
                           min_size=int(len(arcs) * min_arc_share),
                           max_size=len(arcs)))
    weights = {arc: float(draw(st.integers(0, 2))) for arc in chosen}
    if parallel:
        doubled = draw(st.lists(st.sampled_from(chosen), unique=True,
                                max_size=4)) if chosen else []
        for m, (u, v) in enumerate(doubled, start=n):
            first = float(draw(st.integers(0, int(weights[u, v]))))
            weights[u, m] = first
            weights[m, v] = weights[u, v] - first
        n += len(doubled)
    source = draw(st.integers(0, n - 1))
    target = draw(st.integers(0, n - 1).filter(lambda v: v != source))
    return _digraph_case(n, weights, source, target)


def _digraph_case(n, weights, source, target):
    """A ``digraph_queries`` value: vertices ``0..n-1`` and the arcs of
    ``weights``."""
    network = RoadNetwork(name="hypothesis")
    for v in range(n):
        network.add_vertex(v, float(v), float(v * v))
    for u, v in weights:
        network.add_edge(u, v, length=1.0)
    return network, weights, source, target


#: Drawing the tie-breaking counter when a deferred search runs, not
#: when its spur is found, yields this complete digraph's zero-cost
#: paths in another order.
_COUNTER_DRAWN_LATE = _digraph_case(4, {
    (0, 1): 0.0, (0, 2): 1.0, (0, 3): 0.0, (1, 0): 0.0, (1, 2): 0.0,
    (1, 3): 0.0, (2, 0): 0.0, (2, 3): 0.0, (2, 1): 1.0, (3, 0): 0.0,
    (3, 1): 0.0, (3, 2): 0.0}, 0, 1)


@given(digraph_queries(min_vertices=4, min_arc_share=0.5, parallel=True),
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


@given(digraph_queries(parallel=True))
@example(_COUNTER_DRAWN_LATE)
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
    search per query, on every network."""

    @given(digraph_queries())
    @settings(max_examples=150, deadline=None)
    def test_distance_to_target_on_random_digraphs(self, case):
        network, weights, _, target = case
        cost = _weighted(weights)
        kernel = csr_for(network)
        t = kernel.index_of(target)
        h = kernel._potential(cost, t)
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

    @pytest.mark.parametrize("cost", [length_cost, travel_time_cost])
    def test_guidance_ignores_landmark_tables(self, tiny_network, cost):
        """The potential depends on the network and the cost alone: a
        kernel with landmark tables yields what one without them does,
        so a worker process that never builds them yields the parent's
        sequence."""
        bare, landmarked = CSRGraph(tiny_network), CSRGraph(tiny_network)
        landmarked.ensure_alt(cost)
        for target in range(bare.num_vertices):
            assert bare._potential(cost, target) \
                == landmarked._potential(cost, target)
        for source in tiny_network.vertex_ids():
            for target in tiny_network.vertex_ids():
                if source != target:
                    assert list(bare.yen_ids(source, target, cost)) \
                        == list(landmarked.yen_ids(source, target, cost))
        assert bare._alt_tables == {}

    @pytest.mark.parametrize("cost", [length_cost, travel_time_cost])
    def test_distance_to_target_on_the_region(self, region_network, cost):
        """On a network of well over 128 vertices, where Yen was once
        ALT-guided, the potential is the distance to the target (to
        summation order), ``inf`` exactly where the target is out of
        reach, and consistent on every edge as computed."""
        kernel = CSRGraph(region_network)
        edge_weights = kernel.edge_weights(cost)
        indptr, indices = kernel._indptr_list, kernel._indices_list
        for _, target in _pairs(region_network, 3, seed=8):
            t = kernel.index_of(target)
            h = kernel._potential(cost, t)
            to_target = [float(kernel.single_source(vid, cost)[t])
                         for vid in kernel.ids]
            assert h[t] == 0.0
            assert [d == inf for d in h] == [d == inf for d in to_target]
            assert h == pytest.approx(to_target, rel=1e-12)
            for u in range(kernel.num_vertices):
                for j in range(indptr[u], indptr[u + 1]):
                    assert h[u] <= edge_weights[j] + h[indices[j]]

    def test_yen_builds_no_landmark_tables(self, region_network):
        kernel = CSRGraph(region_network)
        source, target = _pairs(region_network, 1, seed=9)[0]
        list(kernel.yen_ids(source, target, max_paths=8))
        assert kernel._alt_tables == {}
        assert kernel.profile_counters()["astar_runs"] > 0

    @pytest.mark.parametrize("cost", [length_cost, travel_time_cost,
                                      detour_cost])
    def test_one_astar_run_per_undecided_spur(self, region_network, cost):
        """Every spur search that runs is one A*, plus one for the first
        path; a spur decided up front, or deferred and still queued when
        the enumeration stops, runs none.  Deferral does skip searches:
        fewer run than the pre-check left undecided."""
        kernel = csr_for(region_network)
        undecided = []

        def spy(*args):
            key = CSRGraph._spur_ruled_out(*args)
            undecided.append(key != inf)
            return key

        kernel._spur_ruled_out = spy
        skipped = 0
        try:
            for source, target in _pairs(region_network, 4, seed=10):
                before = kernel.profile_counters()
                undecided.clear()
                list(kernel.yen_ids(source, target, cost, max_paths=40))
                delta = _delta(kernel, before)
                assert delta["astar_runs"] == (delta["yen_spur_searches"]
                                               - delta["yen_spur_skipped"] + 1)
                assert delta["astar_runs"] - 1 < sum(undecided)
                assert delta["p2p_runs"] == 0
                skipped += delta["yen_spur_skipped"]
        finally:
            del kernel._spur_ruled_out
        assert skipped > 0


class TestSsspParentsOracle:
    """``sssp_parents`` against the dict ``dijkstra`` tree, ``==`` on
    distances and on parents, ties included: zero weights, integer ties,
    one-way arcs and unreachable vertices; and the heap loop it falls
    back to on plateaus, on its own."""

    @staticmethod
    def _assert_reference_tree(network, kernel, source, cost, dist, parent):
        ref_dist, ref_prev = dijkstra(network, source, cost)
        ids = kernel.ids
        assert {ids[v]: d for v, d in enumerate(dist.tolist())
                if d != inf} == ref_dist
        assert {ids[v]: ids[p] for v, p in enumerate(parent.tolist())
                if p >= 0} == ref_prev

    @pytest.mark.parametrize("shift", [0.0, 1.0])
    @given(case=digraph_queries())
    @settings(max_examples=150, deadline=None)
    def test_random_digraphs(self, shift, case):
        """``shift`` 1 lifts the weights to 1..3: no zero weights, so
        every tree comes from the distances, integer ties and all."""
        network, weights, source, _ = case
        cost = _weighted({arc: w + shift for arc, w in weights.items()})
        kernel = csr_for(network)
        dist, parent = kernel.sssp_parents(source, cost)
        self._assert_reference_tree(network, kernel, source, cost, dist,
                                    parent)
        if shift:
            assert kernel._tight_parents(dist, cost) is not None

    @pytest.mark.parametrize("shift", [0.0, 1.0])
    @given(case=digraph_queries())
    @settings(max_examples=150, deadline=None)
    def test_loop_matches_the_reference(self, shift, case):
        """The heap loop alone, on every draw, plateau or not."""
        network, weights, source, _ = case
        cost = _weighted({arc: w + shift for arc, w in weights.items()})
        kernel = csr_for(network)
        dist, parent = kernel._sssp_parents_loop(kernel.index_of(source),
                                                 cost)
        self._assert_reference_tree(network, kernel, source, cost, dist,
                                    parent)

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


def _precheck_decisions(kernel, source, target, cost, max_paths):
    """Run Yen with a spy on the pre-check; returns the ``_p2p`` result
    of every spur search the pre-check decided, each run with the same
    root, bans, bound and potential.

    A spur it leaves undecided is queued under its first key, which the
    spy checks is a lower bound on the cost of what the search finds, up
    to the rounding the slack absorbs.
    """
    t = kernel.index_of(target)
    adj = kernel._forward(cost)
    h = kernel._potential(cost, t)
    decided = []

    def spy(adj_, potential, spur, banned_next, root, bound):
        assert potential == h
        key = CSRGraph._spur_ruled_out(adj_, potential, spur, banned_next,
                                       root, bound)
        result = kernel._p2p(spur, t, adj, h,
                             [v for v in root if v != spur],
                             set(banned_next), bound)
        if key == inf:
            decided.append(result)
        else:
            # The key adds the weights in another order than the path's
            # cost; the queue keys it less the cap's relative slack.
            assert result is None \
                or result[1] >= key / csr_module._CAP_SLACK
        return key

    kernel._spur_ruled_out = spy
    try:
        list(kernel.yen_ids(source, target, cost, max_paths=max_paths))
    finally:
        del kernel._spur_ruled_out
    return decided


@given(digraph_queries(min_vertices=3, min_arc_share=0.4),
       st.integers(1, 8), st.booleans())
@settings(max_examples=200, deadline=None)
def test_precheck_decides_only_searches_that_find_nothing(case, max_paths,
                                                          capped):
    """Each spur search the pre-check decides is one ``_p2p`` would have
    ended with ``None``: same root, same bans, same bound, same
    potential."""
    network, weights, source, target = case
    try:
        decided = _precheck_decisions(csr_for(network), source, target,
                                      _weighted(weights),
                                      max_paths if capped else None)
    except NoPathError:
        return
    assert decided == [None] * len(decided)


@pytest.mark.parametrize("cost", [length_cost, travel_time_cost])
def test_precheck_decides_spurs_on_the_region(region_network, cost):
    """The pre-check decides spurs on real queries, and every one of
    them is a search that finds nothing."""
    kernel = csr_for(region_network)
    decided = []
    for source, target in _pairs(region_network, 2, seed=13):
        decided += _precheck_decisions(kernel, source, target, cost,
                                       max_paths=40)
    assert decided and decided == [None] * len(decided)


def _deferred_ban_sets(kernel, source, target, cost, max_paths):
    """Run Yen with spies; returns one ``(then, now)`` pair per deferred
    search that ran: the ban set its spur had when the pre-check queued
    it, and the one the search ran with, paired by trie node.

    A node holds at most one queued spur at a time (its next spur comes
    from accepting the path its search finds), so ``id(node)`` pairs
    them."""
    found, ran = {}, []
    search = kernel._search

    def precheck(adj, potential, spur, banned_next, root, bound):
        key = CSRGraph._spur_ruled_out(adj, potential, spur, banned_next,
                                       root, bound)
        if key != inf:
            assert id(banned_next) not in found
            found[id(banned_next)] = frozenset(banned_next)
        return key

    def spy(source_, target_, adj, h=None, banned_vertices=(),
            banned_next=(), bound=inf):
        if banned_next != ():
            ran.append((found.pop(id(banned_next)), frozenset(banned_next)))
        return search(source_, target_, adj, h, banned_vertices,
                      banned_next, bound)

    kernel._spur_ruled_out, kernel._search = precheck, spy
    try:
        list(kernel.yen_ids(source, target, cost, max_paths=max_paths))
    finally:
        del kernel._spur_ruled_out, kernel._search
    return ran


@given(digraph_queries(min_vertices=3, min_arc_share=0.4, parallel=True),
       st.one_of(st.none(), st.integers(1, 8)))
@settings(max_examples=150, deadline=None)
def test_deferred_search_runs_with_the_ban_set_of_its_spur(case, max_paths):
    """A deferred search reads its ban set from the trie when it runs;
    that set is still the one its spur had when it was found.  A path
    accepted in between that added a vertex to it would lie among the
    paths only that spur's own search returns."""
    network, weights, source, target = case
    try:
        ran = _deferred_ban_sets(csr_for(network), source, target,
                                 _weighted(weights), max_paths)
    except NoPathError:
        return
    assert [then for then, now in ran] == [now for then, now in ran]


@pytest.mark.parametrize("cost", [length_cost, travel_time_cost])
def test_deferred_search_runs_with_the_ban_set_of_its_spur_on_the_region(
        region_network, cost):
    kernel = csr_for(region_network)
    ran = []
    for source, target in _pairs(region_network, 3, seed=14):
        ran += _deferred_ban_sets(kernel, source, target, cost, 40)
    assert any(then for then, _ in ran)
    assert [then for then, now in ran] == [now for then, now in ran]


class TestWorkerKernelParity:
    """A pool worker is sent the network by pickle and builds its own
    kernel: the copy's kernel is the owner's, array for array, and
    yields the owner's sequence whatever the owner has cached."""

    def test_worker_kernel_has_the_owner_arrays(self, region_network):
        owner = CSRGraph(region_network)
        owner.ensure_alt()
        worker = CSRGraph(pickle.loads(pickle.dumps(region_network)))
        assert set(vars(worker)) == set(vars(owner))
        assert worker.fingerprint == owner.fingerprint
        assert worker.ids == owner.ids
        assert worker._indptr_list == owner._indptr_list
        assert worker._indices_list == owner._indices_list
        assert [edge.key for edge in worker._edges] \
            == [edge.key for edge in owner._edges]
        for cost in (length_cost, travel_time_cost):
            assert worker.edge_weights(cost) == owner.edge_weights(cost)
        assert worker._alt_tables == {}

    @pytest.mark.parametrize("cost", [length_cost, travel_time_cost])
    def test_worker_kernel_yields_the_owner_sequence(self, region_network,
                                                     cost):
        owner = CSRGraph(region_network)
        owner.ensure_alt(cost)
        worker = CSRGraph(pickle.loads(pickle.dumps(region_network)))
        for source, target in _pairs(region_network, 4, seed=12):
            assert list(worker.yen_ids(source, target, cost,
                                       max_paths=40)) == \
                list(owner.yen_ids(source, target, cost, max_paths=40))
        assert worker.profile_counters() == owner.profile_counters()
