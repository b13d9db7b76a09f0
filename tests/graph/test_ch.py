"""The contraction-hierarchy lane: parity oracle, lifecycle, sharding.

The hierarchy is a *preprocessed* view of the same weighted graph, so
every test here is a parity oracle at heart: whatever the CSR lanes
answer, the CH lane must answer identically — on plain grids, on
Voronoi shard subnetworks, under custom weights, and for disconnected
pairs (where both lanes must refuse identically).  The lifecycle tests
pin the staleness story (a network mutation drops the hierarchy with
the kernel) and the custom-weight eviction story (an evicted weight
key takes its hierarchy down with it, and a re-request rebuilds a
correct one).  The sharding tests cover corridor certificates: the
decision procedure, the forced-widening path, and the exactness
guarantee that makes certification worth having.
"""

import numpy as np
import pytest

from repro.errors import NoPathError
from repro.graph import (
    csr_for,
    grid_network,
    partition_network,
    shortest_path,
    shortest_path_cost,
    travel_time_cost,
    use_routing_backend,
)
from repro.graph.csr import CSRGraph
from repro.graph.partition import CorridorCertificate
from repro.graph import RoadNetwork


def _random_pairs(network, count, seed):
    rng = np.random.default_rng(seed)
    ids = network.vertex_ids()
    return [tuple(int(v) for v in rng.choice(ids, 2, replace=False))
            for _ in range(count)]


@pytest.fixture(scope="module", params=[(6, 9, 3), (9, 7, 11), (12, 12, 29)])
def random_grid(request):
    rows, cols, seed = request.param
    return grid_network(rows, cols, seed=seed)


# ----------------------------------------------------------------------
# Parity oracle
# ----------------------------------------------------------------------
class TestChParity:
    def test_paths_and_costs_match_csr_lane(self, random_grid):
        """Grid oracle: identical vertex sequences and re-summed costs.

        The perturbed grid weights make ties vanishingly unlikely, and
        the hierarchy re-sums original edge weights in path order, so
        parity here is exact, not approximate."""
        kernel = csr_for(random_grid)
        for source, target in _random_pairs(random_grid, 25, seed=5):
            expected_path, expected_cost = kernel.shortest_path_ids(
                source, target)
            got_path, got_cost = kernel.ch_shortest_path_ids(source, target)
            assert got_path == expected_path
            assert got_cost == pytest.approx(expected_cost, abs=1e-9)

    def test_travel_time_parity(self, random_grid):
        kernel = csr_for(random_grid)
        for source, target in _random_pairs(random_grid, 10, seed=7):
            expected = kernel.shortest_path_cost(source, target,
                                                 travel_time_cost)
            got = kernel.ch_shortest_path_cost(source, target,
                                               travel_time_cost)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_custom_random_weight_parity(self, random_grid):
        """A pseudo-random positive weight per edge — the hierarchy must
        contract and answer correctly for weights it has never seen."""
        def noisy(edge):
            mix = (edge.source * 2654435761 + edge.target * 40503) % 997
            return edge.length * (0.5 + mix / 997.0)

        kernel = csr_for(random_grid)
        for source, target in _random_pairs(random_grid, 10, seed=17):
            expected = kernel.shortest_path_cost(source, target, noisy)
            got = kernel.ch_shortest_path_cost(source, target, noisy)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_voronoi_shard_subnetworks_parity(self):
        """Per-shard hierarchies: each Voronoi subnetwork is its own
        little graph with boundary-truncated topology; the CH lane must
        agree with the CSR lane inside every one of them."""
        network = grid_network(10, 10, seed=23)
        partition = partition_network(network, 3, method="voronoi", rng=4)
        for shard_id in range(partition.num_shards):
            sub = partition.subnetwork(shard_id)
            pairs = _random_pairs(sub, 6, seed=shard_id)
            for source, target in pairs:
                try:
                    expected = shortest_path_cost(sub, source, target)
                except NoPathError:
                    with pytest.raises(NoPathError):
                        shortest_path_cost(sub, source, target,
                                           backend="ch")
                    continue
                got = shortest_path_cost(sub, source, target, backend="ch")
                assert got == pytest.approx(expected, abs=1e-9)

    def test_module_level_backend_returns_equal_path_objects(
            self, random_grid):
        source, target = _random_pairs(random_grid, 1, seed=31)[0]
        via_csr = shortest_path(random_grid, source, target)
        via_ch = shortest_path(random_grid, source, target, backend="ch")
        assert via_ch == via_csr
        assert via_ch.length == pytest.approx(via_csr.length, abs=1e-9)

    def test_global_backend_context_routes_through_hierarchy(
            self, random_grid):
        kernel = csr_for(random_grid)
        before = kernel.ch_profile_counters()["queries"]
        source, target = _random_pairs(random_grid, 1, seed=37)[0]
        with use_routing_backend("ch"):
            shortest_path(random_grid, source, target)
        after = kernel.ch_profile_counters()["queries"]
        assert after > before

    def test_disconnected_pair_refused_by_both_lanes(self):
        """Two islands: the hierarchy must raise the same NoPathError
        the CSR lane raises, not invent a path through shortcuts."""
        net = RoadNetwork(name="islands")
        for vid, (x, y) in enumerate([(0, 0), (100, 0), (0, 100),
                                      (5000, 5000), (5100, 5000)]):
            net.add_vertex(vid, float(x), float(y))
        net.add_two_way(0, 1, length=100.0)
        net.add_two_way(1, 2, length=140.0)
        net.add_two_way(3, 4, length=100.0)
        kernel = csr_for(net)
        with pytest.raises(NoPathError):
            kernel.shortest_path_ids(0, 3)
        with pytest.raises(NoPathError):
            kernel.ch_shortest_path_ids(0, 3)
        # The connected component still answers through the hierarchy.
        path, cost = kernel.ch_shortest_path_ids(0, 2)
        assert path == [0, 1, 2]
        assert cost == pytest.approx(240.0)

    def test_same_endpoints_raise_no_path(self, random_grid):
        kernel = csr_for(random_grid)
        with pytest.raises(NoPathError):
            kernel.ch_shortest_path_ids(0, 0)
        assert kernel.ch_shortest_path_cost(0, 0) == 0.0


# ----------------------------------------------------------------------
# Search effort and Yen through the hierarchy
# ----------------------------------------------------------------------
class TestChEffort:
    def test_ch_settles_fewer_vertices_than_cold_dijkstra(self):
        """The claim the hierarchy exists for, as exact settle counts:
        its upward searches finalise fewer vertices than the kernel's
        early-exit Dijkstra (no landmark tables) on the same queries."""
        network = grid_network(16, 16, seed=41)
        kernel = csr_for(network)
        pairs = _random_pairs(network, 20, seed=43)
        before = kernel.profile_counters()["settled"]
        cold = [kernel.shortest_path_ids(s, t) for s, t in pairs]
        cold_settled = kernel.profile_counters()["settled"] - before
        assert kernel.profile_counters()["astar_runs"] == 0

        hierarchy = kernel.ensure_ch()
        assert hierarchy.num_shortcuts > 0 and hierarchy.build_ms > 0.0
        before = hierarchy.profile["settled"]
        via_ch = [kernel.ch_shortest_path_ids(s, t) for s, t in pairs]
        ch_settled = hierarchy.profile["settled"] - before
        assert [path for path, _ in via_ch] == [path for path, _ in cold]
        assert 0 < ch_settled < cold_settled

    def test_yen_via_ch_p2p_equals_plain_yen(self, random_grid):
        """Substituting the hierarchy for Yen's initial search changes
        nothing: same paths, same order, same float costs."""
        kernel = csr_for(random_grid)
        p2p = kernel.ch_p2p()
        for source, target in _random_pairs(random_grid, 4, seed=47):
            plain = list(kernel.yen_ids(source, target, max_paths=6))
            via_ch = list(kernel.yen_ids(source, target, max_paths=6,
                                         p2p=p2p))
            assert via_ch == plain


# ----------------------------------------------------------------------
# Lifecycle: staleness and custom-weight eviction
# ----------------------------------------------------------------------
class TestChLifecycle:
    def test_mutation_drops_hierarchy_with_kernel(self):
        """Fingerprint bump: csr_for builds a fresh kernel, and the new
        kernel starts with no hierarchy — the stale shortcut graph can
        never serve the mutated network."""
        net = grid_network(5, 5, seed=2)
        kernel = csr_for(net)
        kernel.ensure_ch()
        assert kernel.ch_if_built() is not None
        u = net.vertex_ids()[0]
        v = next(t for t in net.vertex_ids()
                 if t != u and not net.has_edge(u, t))
        net.add_edge(u, v, length=1.0)
        rebuilt = csr_for(net)
        assert rebuilt is not kernel
        assert rebuilt.ch_if_built() is None
        # A fresh build on the new kernel sees the new edge.
        path, cost = rebuilt.ch_shortest_path_ids(u, v)
        assert path == [u, v]
        assert cost == pytest.approx(1.0)

    def test_ensure_ch_is_memoised_per_weight_key(self):
        net = grid_network(5, 5, seed=3)
        kernel = csr_for(net)
        first = kernel.ensure_ch()
        assert kernel.ensure_ch() is first
        other = kernel.ensure_ch(travel_time_cost)
        assert other is not first
        assert kernel.ch_if_built(travel_time_cost) is other

    def test_custom_weight_eviction_drops_hierarchy(self, monkeypatch):
        """Regression for the eviction path: when a custom weight key
        falls off the LRU, its hierarchy must go with it (a shortcut
        graph derived from evicted weights is garbage), and a later
        re-request must rebuild a correct one from scratch."""
        from repro.graph import csr as csr_module
        monkeypatch.setattr(csr_module, "_CUSTOM_WEIGHT_CAP", 2)
        net = grid_network(5, 5, seed=4)
        kernel = CSRGraph(net)

        def scale(factor):
            def cost(edge, _factor=factor):
                return edge.length * _factor
            return cost

        costs = [scale(1.0), scale(2.0), scale(3.0)]
        source, target = _random_pairs(net, 1, seed=5)[0]
        expected = [kernel.shortest_path_cost(source, target, c)
                    for c in costs]

        kernel.ensure_ch(costs[0])
        kernel.ensure_ch(costs[1])
        assert kernel.ch_if_built(costs[0]) is not None
        assert kernel.ch_if_built(costs[1]) is not None
        # Third custom key: costs[0] is the LRU victim; its hierarchy
        # must leave the table alongside its weight array.
        kernel.ensure_ch(costs[2])
        assert kernel.ch_if_built(costs[0]) is None
        assert kernel.ch_if_built(costs[2]) is not None
        # Re-requesting the evicted key rebuilds, and the rebuilt
        # hierarchy answers correctly for *its* weights.
        for cost, want in zip(costs, expected):
            got = kernel.ch_shortest_path_cost(source, target, cost)
            assert got == pytest.approx(want, abs=1e-9)

    def test_builtin_keys_survive_custom_churn(self, monkeypatch):
        """Only custom keys churn through the LRU — the built-in length
        hierarchy must survive any amount of custom traffic."""
        from repro.graph import csr as csr_module
        monkeypatch.setattr(csr_module, "_CUSTOM_WEIGHT_CAP", 1)
        net = grid_network(4, 4, seed=6)
        kernel = CSRGraph(net)
        builtin = kernel.ensure_ch()
        for factor in (1.5, 2.5, 3.5):
            def cost(edge, _factor=factor):
                return edge.length * _factor
            kernel.ensure_ch(cost)
        assert kernel.ch_if_built() is builtin


# ----------------------------------------------------------------------
# Shared-memory export: replicas attach, never re-contract
# ----------------------------------------------------------------------
class TestSharedHierarchy:
    def test_from_shared_attaches_owner_hierarchy(self):
        net = grid_network(6, 6, seed=8)
        kernel = csr_for(net)
        kernel.ensure_alt()
        owner = kernel.ensure_ch()
        arrays, meta = kernel.shared_payload()
        assert meta["ch_keys"] == ["length"]

        replica = CSRGraph.from_shared(arrays, meta)
        attached = replica.ch_if_built()
        assert attached is not None
        assert attached.num_shortcuts == owner.num_shortcuts
        assert attached.build_ms == owner.build_ms
        # ensure_ch on the replica finds the attached table: no rebuild.
        assert replica.ensure_ch() is attached
        for source, target in _random_pairs(net, 8, seed=9):
            expected_path, expected_cost = kernel.ch_shortest_path_ids(
                source, target)
            got_path, got_cost = replica.ch_shortest_path_ids(source, target)
            assert got_path == expected_path
            assert got_cost == pytest.approx(expected_cost, abs=1e-12)

    def test_payload_without_hierarchy_ships_none(self):
        net = grid_network(4, 4, seed=10)
        kernel = csr_for(net)
        arrays, meta = kernel.shared_payload()
        assert meta["ch_keys"] == []
        replica = CSRGraph.from_shared(arrays, meta)
        assert replica.ch_if_built() is None


# ----------------------------------------------------------------------
# Corridor certificates
# ----------------------------------------------------------------------
class TestCorridorCertificate:
    @pytest.fixture(scope="class")
    def sharded_grid(self):
        network = grid_network(12, 12, seed=19)
        partition = partition_network(network, 3, method="bfs", rng=2)
        return network, partition

    def test_certificate_is_memoised_and_symmetric(self, sharded_grid):
        _, partition = sharded_grid
        certificate = partition.corridor_certificate(0, 1)
        assert partition.corridor_certificate(1, 0) is certificate
        assert isinstance(certificate, CorridorCertificate)

    def test_sweep_produces_both_verdicts(self, sharded_grid):
        """The forced-widening requirement: on a 3-shard grid some
        cross-shard pairs provably stay inside their corridor and some
        provably might not — the sweep must produce both verdicts, or
        the certificate is a constant function in disguise."""
        network, partition = sharded_grid
        certificate = partition.corridor_certificate(0, 1)
        verdicts = {"certified": 0, "widened": 0, "unreachable": 0}
        shard0 = sorted(partition.shard(0).nodes)
        shard1 = sorted(partition.shard(1).nodes)
        for source in shard0[::4]:
            for target in shard1[::4]:
                verdicts[certificate.decide(source, target)] += 1
        assert verdicts["certified"] > 0
        assert verdicts["widened"] > 0

    def test_certified_routes_are_exactly_optimal(self, sharded_grid):
        """The point of the certificate: every *certified* pair's
        corridor-restricted cost equals the full-network optimum."""
        network, partition = sharded_grid
        certificate = partition.corridor_certificate(0, 1)
        shard0 = sorted(partition.shard(0).nodes)
        shard1 = sorted(partition.shard(1).nodes)
        checked = 0
        for source in shard0[::6]:
            for target in shard1[::6]:
                if certificate.decide(source, target) != "certified":
                    continue
                corridor_cost = shortest_path_cost(
                    certificate.corridor, source, target)
                full_cost = shortest_path_cost(network, source, target)
                assert corridor_cost == pytest.approx(full_cost, abs=1e-9)
                checked += 1
        assert checked > 0

    def test_custom_cost_always_widens(self, sharded_grid):
        """No admissible geometric bound exists for an arbitrary cost
        function, so the certificate must conservatively widen."""
        _, partition = sharded_grid
        certificate = partition.corridor_certificate(0, 1)
        shard0 = sorted(partition.shard(0).nodes)
        shard1 = sorted(partition.shard(1).nodes)

        def custom(edge):
            return edge.length * 2.0

        assert certificate.decide(shard0[0], shard1[0],
                                  cost=custom) == "widened"

    def test_ensure_hierarchies_builds_per_shard(self, sharded_grid):
        network, partition = sharded_grid
        build_ms = partition.ensure_hierarchies()
        assert set(build_ms) == {
            partition.subnetwork(i).name
            for i in range(partition.num_shards)}
        assert all(ms >= 0.0 for ms in build_ms.values())
        for shard_id in range(partition.num_shards):
            sub = partition.subnetwork(shard_id)
            assert csr_for(sub).ch_if_built() is not None
