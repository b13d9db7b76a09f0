"""Region partitioning: invariants, methods, derived subgraphs, corridor
certificates."""

import pytest

from repro.errors import ConfigError, VertexNotFoundError
from repro.graph import (
    GraphPartition,
    bfs_partition,
    grid_network,
    grid_partition,
    partition_network,
    shortest_path_cost,
    voronoi_partition,
)
from repro.graph.partition import PARTITION_METHODS, CorridorCertificate


ALL_METHODS = sorted(PARTITION_METHODS)


class TestPartitionInvariants:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_every_vertex_in_exactly_one_shard(self, region_network, method):
        partition = partition_network(region_network, 3, method=method)
        assigned = [vid for shard in partition.shards for vid in shard.nodes]
        assert sorted(assigned) == sorted(region_network.vertex_ids())
        for vid in region_network.vertex_ids():
            assert vid in partition.shards[partition.shard_of(vid)]

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_no_empty_shards_and_dense_ids(self, region_network, method):
        partition = partition_network(region_network, 4, method=method)
        assert all(shard.size > 0 for shard in partition.shards)
        assert [shard.shard_id for shard in partition.shards] == \
            list(range(partition.num_shards))

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_boundary_nodes_touch_other_shards(self, region_network, method):
        partition = partition_network(region_network, 3, method=method)
        for shard in partition.shards:
            for vid in shard.boundary:
                neighbours = (region_network.successors(vid)
                              + region_network.predecessors(vid))
                assert any(partition.shard_of(n) != shard.shard_id
                           for n in neighbours)
            # Interior nodes must have purely intra-shard neighbourhoods.
            for vid in shard.interior:
                neighbours = (region_network.successors(vid)
                              + region_network.predecessors(vid))
                assert all(partition.shard_of(n) == shard.shard_id
                           for n in neighbours)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_cut_edges_match_assignment(self, region_network, method):
        partition = partition_network(region_network, 3, method=method)
        cut = sum(1 for edge in region_network.edges()
                  if not partition.same_shard(edge.source, edge.target))
        assert partition.cut_edges == cut

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_deterministic_per_seed(self, region_network, method):
        first = partition_network(region_network, 3, method=method, rng=5)
        second = partition_network(region_network, 3, method=method, rng=5)
        assert all(a.nodes == b.nodes
                   for a, b in zip(first.shards, second.shards))

    def test_single_shard_has_no_boundary(self, region_network):
        partition = bfs_partition(region_network, 1)
        assert partition.num_shards == 1
        assert partition.cut_edges == 0
        assert not partition.shards[0].boundary

    def test_bfs_shards_are_balanced(self, region_network):
        partition = bfs_partition(region_network, 4, rng=0)
        assert partition.balance() < 1.5


class TestDerivedSubgraphs:
    def test_subnetwork_preserves_global_ids_and_edges(self, region_network):
        partition = voronoi_partition(region_network, 3, rng=0)
        shard = partition.shards[0]
        sub = partition.subnetwork(0)
        assert sorted(sub.vertex_ids()) == sorted(shard.nodes)
        for edge in sub.edges():
            original = region_network.edge(edge.source, edge.target)
            assert original.length == edge.length
        # Memoised: the same object comes back.
        assert partition.subnetwork(0) is sub

    def test_corridor_contains_both_shards_and_cut_edges(self, region_network):
        partition = voronoi_partition(region_network, 3, rng=0)
        corridor = partition.corridor(0, 1)
        union = set(partition.shards[0].nodes) | set(partition.shards[1].nodes)
        assert set(corridor.vertex_ids()) == union
        cut_01 = [edge for edge in region_network.edges()
                  if {partition.shard_of(edge.source),
                      partition.shard_of(edge.target)} == {0, 1}]
        for edge in cut_01:
            assert corridor.has_edge(edge.source, edge.target)
        assert partition.corridor(1, 0) is corridor  # unordered memo

    def test_corridor_of_same_shard_is_the_subnetwork(self, region_network):
        partition = voronoi_partition(region_network, 2, rng=0)
        assert partition.corridor(1, 1) is partition.subnetwork(1)


class TestValidationAndErrors:
    def test_unknown_vertex_raises(self, region_network):
        partition = bfs_partition(region_network, 2)
        with pytest.raises(VertexNotFoundError):
            partition.shard_of(10_000_000)

    def test_unknown_method_rejected(self, region_network):
        with pytest.raises(ConfigError):
            partition_network(region_network, 2, method="metis5000")

    def test_bad_shard_counts_rejected(self, region_network):
        with pytest.raises(ConfigError):
            bfs_partition(region_network, 0)
        with pytest.raises(ConfigError):
            bfs_partition(region_network, region_network.num_vertices + 1)

    def test_incomplete_assignment_rejected(self, tiny_network):
        assignment = {vid: 0 for vid in tiny_network.vertex_ids()}
        del assignment[0]
        with pytest.raises(ConfigError):
            GraphPartition(tiny_network, assignment)

    def test_sparse_shard_ids_rejected(self, tiny_network):
        assignment = {vid: (0 if vid < 3 else 2)
                      for vid in tiny_network.vertex_ids()}
        with pytest.raises(ConfigError):
            GraphPartition(tiny_network, assignment)

    def test_grid_partition_reports_realised_shard_count(self, region_network):
        partition = grid_partition(region_network, 4, rng=0)
        # The realised count may differ from the request (empty cells
        # collapse, the ceil factorisation may add one) but must be
        # dense, non-empty, and at least 2 for a multi-town region.
        assert partition.num_shards >= 2
        assert all(shard.size > 0 for shard in partition.shards)


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
