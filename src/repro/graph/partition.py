"""Region partitioning: split a road network into node-disjoint shards.

The serving layer hangs one model registry, candidate cache, score
cache and scoring queue off each shard.  A partition only says which
shard owns a vertex; candidate generation always runs on the full
network.

:func:`voronoi_partition` is the partitioner: road-distance Voronoi
cells around farthest-point seeds (one batched multi-source Dijkstra
sweep), so a multi-town region splits into its towns.  It returns a
:class:`GraphPartition`: per-shard :class:`RegionShard` records (node
sets plus the *boundary* nodes that touch another shard) and an O(1)
node→shard map.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, VertexNotFoundError
from repro.graph.csr import csr_for
from repro.graph.network import RoadNetwork
from repro.rng import RngLike, make_rng

__all__ = ["RegionShard", "GraphPartition", "voronoi_partition"]


@dataclass(frozen=True)
class RegionShard:
    """One region of a partitioned network.

    ``boundary`` holds the shard's gateway nodes — members with at least
    one edge (either direction) whose other endpoint lives in a
    different shard.
    """

    shard_id: int
    nodes: frozenset[int]
    boundary: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.nodes)

    def __contains__(self, vertex_id: int) -> bool:
        return vertex_id in self.nodes

    def __repr__(self) -> str:
        return (f"RegionShard(id={self.shard_id}, nodes={len(self.nodes)}, "
                f"boundary={len(self.boundary)})")


class GraphPartition:
    """A node-disjoint, exhaustive split of one network into shards.

    Construction validates the assignment (every vertex mapped, shard
    ids dense ``0..k-1``, no empty shard) and derives the per-shard
    boundary sets and the cut-edge count in one pass over the edges.
    """

    def __init__(self, network: RoadNetwork,
                 assignment: dict[int, int]) -> None:
        ids = network.vertex_ids()
        missing = [vid for vid in ids if vid not in assignment]
        if missing:
            raise ConfigError(
                f"partition assignment misses {len(missing)} vertices "
                f"(e.g. {missing[:3]})")
        labels = sorted(set(assignment[vid] for vid in ids))
        if labels != list(range(len(labels))):
            raise ConfigError(
                f"shard ids must be dense 0..k-1, got {labels[:8]}")
        self.network = network
        #: Fingerprint of the network at partition time; a mutated
        #: network should be re-partitioned, not served from stale shards.
        self.fingerprint = network.fingerprint
        self._assignment = {vid: int(assignment[vid]) for vid in ids}
        num_shards = len(labels)

        nodes: list[set[int]] = [set() for _ in range(num_shards)]
        for vid in ids:
            nodes[self._assignment[vid]].add(vid)
        boundary: list[set[int]] = [set() for _ in range(num_shards)]
        cut = 0
        for edge in network.edges():
            a = self._assignment[edge.source]
            b = self._assignment[edge.target]
            if a != b:
                cut += 1
                boundary[a].add(edge.source)
                boundary[b].add(edge.target)
        self.cut_edges = cut
        self.shards: tuple[RegionShard, ...] = tuple(
            RegionShard(shard_id=i, nodes=frozenset(nodes[i]),
                        boundary=frozenset(boundary[i]))
            for i in range(num_shards)
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_of(self, vertex_id: int) -> int:
        try:
            return self._assignment[vertex_id]
        except KeyError:
            raise VertexNotFoundError(vertex_id) from None

    def shard(self, shard_id: int) -> RegionShard:
        if not 0 <= shard_id < len(self.shards):
            raise ConfigError(
                f"no shard {shard_id}; partition has {len(self.shards)}")
        return self.shards[shard_id]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def balance(self) -> float:
        """Largest shard size over the ideal equal share (1.0 = perfect)."""
        ideal = self.network.num_vertices / self.num_shards
        return max(shard.size for shard in self.shards) / ideal

    def as_dict(self) -> dict[str, object]:
        return {
            "num_shards": self.num_shards,
            "shard_sizes": [shard.size for shard in self.shards],
            "boundary_nodes": [len(shard.boundary) for shard in self.shards],
            "cut_edges": self.cut_edges,
            "cut_fraction": (self.cut_edges / self.network.num_edges
                             if self.network.num_edges else 0.0),
            "balance": self.balance(),
        }

    def __repr__(self) -> str:
        sizes = ", ".join(str(shard.size) for shard in self.shards)
        return (f"GraphPartition(shards={self.num_shards}, sizes=[{sizes}], "
                f"cut_edges={self.cut_edges})")


# ----------------------------------------------------------------------
# Undirected adjacency over the CSR arrays
# ----------------------------------------------------------------------
def _undirected_adjacency(kernel) -> list[list[int]]:
    """Symmetrised neighbour lists in CSR index space.

    Seed spreading must not treat the tail of a one-way street as
    unreachable, so both edge directions count as adjacency.
    """
    n = kernel.num_vertices
    adjacency: list[set[int]] = [set() for _ in range(n)]
    indptr, indices = kernel.indptr, kernel.indices
    for u in range(n):
        for e in range(int(indptr[u]), int(indptr[u + 1])):
            v = int(indices[e])
            adjacency[u].add(v)
            adjacency[v].add(u)
    return [sorted(neighbours) for neighbours in adjacency]


def _farthest_point_seeds(adjacency: list[list[int]], num_seeds: int,
                          rng) -> list[int]:
    """Mutually distant seed vertices via repeated multi-source BFS.

    Mirrors the ALT landmark selection: the first seed is drawn by the
    rng, every next seed is the vertex with the greatest hop distance
    from all seeds chosen so far (smallest index on ties, so a fixed rng
    yields a fixed partition).  Unreachable vertices (distance still
    ``None``) are preferred outright — they start a new region for their
    component.
    """
    n = len(adjacency)
    seeds = [int(rng.integers(n))]
    while len(seeds) < num_seeds:
        dist: list[int | None] = [None] * n
        frontier = deque(seeds)
        for seed in seeds:
            dist[seed] = 0
        while frontier:
            u = frontier.popleft()
            for v in adjacency[u]:
                if dist[v] is None:
                    dist[v] = dist[u] + 1
                    frontier.append(v)
        best, best_dist = -1, -1
        for v in range(n):
            if dist[v] is None:  # disconnected: infinitely far, take it
                best = v
                break
            if dist[v] > best_dist:
                best, best_dist = v, dist[v]
        seeds.append(best)
    return seeds


def _densify(mapping: dict[int, int]) -> dict[int, int]:
    """Relabel shard ids to dense 0..k-1 (sorted by original label)."""
    labels = {label: i for i, label in enumerate(sorted(set(mapping.values())))}
    return {vid: labels[label] for vid, label in mapping.items()}


def _check_num_shards(network: RoadNetwork, num_shards: int) -> None:
    if num_shards < 1:
        raise ConfigError(f"num_shards must be >= 1, got {num_shards}")
    if network.num_vertices == 0:
        raise ConfigError("cannot partition an empty network")
    if num_shards > network.num_vertices:
        raise ConfigError(
            f"num_shards={num_shards} exceeds the network's "
            f"{network.num_vertices} vertices")


def voronoi_partition(network: RoadNetwork, num_shards: int,
                      rng: RngLike = 0) -> GraphPartition:
    """Road-distance Voronoi cells around farthest-point seeds.

    Every vertex joins the seed it is closest to by shortest-path
    distance (one batched :meth:`CSRGraph.multi_source` sweep), so
    shards follow the *geography* of the network: a multi-town region
    partitions into its towns plus their nearest highway approaches, so
    a town's traffic lands on one shard's caches and model.  There is
    no balance forcing — dense regions get big shards.
    """
    _check_num_shards(network, num_shards)
    kernel = csr_for(network)
    if num_shards == 1:
        return GraphPartition(network, {vid: 0 for vid in kernel.ids})
    adjacency = _undirected_adjacency(kernel)
    generator = make_rng(rng)
    seeds = _farthest_point_seeds(adjacency, num_shards, generator)
    # Distance *to* each vertex from the seed, forward edge direction;
    # min over (forward, reverse) keeps one-way streets from landing a
    # vertex in a far shard it can only be left from.
    seed_ids = [kernel.ids[s] for s in seeds]
    forward = kernel.multi_source(seed_ids, reverse=False)
    backward = kernel.multi_source(seed_ids, reverse=True)
    distance = np.minimum(forward, backward)
    assignment: dict[int, int] = {}
    unreachable: list[int] = []
    for v in range(kernel.num_vertices):
        column = distance[:, v]
        nearest = int(column.argmin())
        if not np.isfinite(column[nearest]):
            unreachable.append(v)
            continue
        assignment[kernel.ids[v]] = nearest
    for v in unreachable:  # satellite components: nearest seed by geometry
        dx = kernel.x[[*seeds]] - float(kernel.x[v])
        dy = kernel.y[[*seeds]] - float(kernel.y[v])
        assignment[kernel.ids[v]] = int((dx * dx + dy * dy).argmin())
    return GraphPartition(network, _densify(assignment))

