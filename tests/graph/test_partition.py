"""Region partitioning: invariants, methods, validation."""

import pytest

from repro.errors import ConfigError, VertexNotFoundError
from repro.graph import (
    GraphPartition,
    bfs_partition,
    grid_partition,
    partition_network,
)
from repro.graph.partition import PARTITION_METHODS


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
