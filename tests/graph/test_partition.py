"""Region partitioning: invariants, validation."""

import pytest

from repro.errors import ConfigError, VertexNotFoundError
from repro.graph import GraphPartition, voronoi_partition


PARTITIONERS = pytest.mark.parametrize("partitioner", [voronoi_partition],
                                       ids=["voronoi"])


class TestPartitionInvariants:
    @PARTITIONERS
    def test_every_vertex_in_exactly_one_shard(self, region_network, partitioner):
        partition = partitioner(region_network, 3)
        assigned = [vid for shard in partition.shards for vid in shard.nodes]
        assert sorted(assigned) == sorted(region_network.vertex_ids())
        for vid in region_network.vertex_ids():
            assert vid in partition.shards[partition.shard_of(vid)]

    @PARTITIONERS
    def test_no_empty_shards_and_dense_ids(self, region_network, partitioner):
        partition = partitioner(region_network, 4)
        assert all(shard.size > 0 for shard in partition.shards)
        assert [shard.shard_id for shard in partition.shards] == \
            list(range(partition.num_shards))

    @PARTITIONERS
    def test_boundary_nodes_touch_other_shards(self, region_network, partitioner):
        partition = partitioner(region_network, 3)
        for shard in partition.shards:
            for vid in shard.boundary:
                neighbours = (region_network.successors(vid)
                              + region_network.predecessors(vid))
                assert any(partition.shard_of(n) != shard.shard_id
                           for n in neighbours)
            # Interior nodes must have purely intra-shard neighbourhoods.
            for vid in shard.nodes - shard.boundary:
                neighbours = (region_network.successors(vid)
                              + region_network.predecessors(vid))
                assert all(partition.shard_of(n) == shard.shard_id
                           for n in neighbours)

    @PARTITIONERS
    def test_cut_edges_match_assignment(self, region_network, partitioner):
        partition = partitioner(region_network, 3)
        cut = sum(1 for edge in region_network.edges()
                  if partition.shard_of(edge.source)
                  != partition.shard_of(edge.target))
        assert partition.cut_edges == cut

    @PARTITIONERS
    def test_deterministic_per_seed(self, region_network, partitioner):
        first = partitioner(region_network, 3, rng=5)
        second = partitioner(region_network, 3, rng=5)
        assert all(a.nodes == b.nodes
                   for a, b in zip(first.shards, second.shards))

    def test_single_shard_has_no_boundary(self, region_network):
        partition = voronoi_partition(region_network, 1)
        assert partition.num_shards == 1
        assert partition.cut_edges == 0
        assert not partition.shards[0].boundary


class TestValidationAndErrors:
    def test_unknown_vertex_raises(self, region_network):
        partition = voronoi_partition(region_network, 2)
        with pytest.raises(VertexNotFoundError):
            partition.shard_of(10_000_000)

    def test_bad_shard_counts_rejected(self, region_network):
        with pytest.raises(ConfigError):
            voronoi_partition(region_network, 0)
        with pytest.raises(ConfigError):
            voronoi_partition(region_network, region_network.num_vertices + 1)

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
