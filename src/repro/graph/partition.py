"""Region partitioning: split a road network into node-disjoint shards.

City-and-beyond networks are too large for one embedding matrix, one
candidate cache, and one scoring batch queue; the serving layer shards
them into *regions* instead (PathRank itself is trained per region, and
the knowledge-enriched path literature likewise works on regional
subnetworks).  This module produces that partition:

* :func:`grid_partition` — cells of the bounding box, the classic
  spatial baseline: trivially deterministic and embarrassingly fast, but
  blind to the road topology (a river with one bridge can land on a cell
  edge).
* :func:`bfs_partition` — METIS-lite balanced BFS growth **over the CSR
  arrays**: farthest-point seeds (the same selection idea as the ALT
  landmarks), then round-robin frontier expansion that always grows the
  currently smallest shard, which keeps shard sizes balanced and cut
  edges low without a full multilevel partitioner.
* :func:`voronoi_partition` — road-distance Voronoi cells around
  farthest-point seeds (one batched multi-source Dijkstra sweep):
  unbalanced but geography-aligned, the choice when shard-local routing
  should reproduce full-network candidates for in-region queries.

Both return a :class:`GraphPartition`: per-shard :class:`RegionShard`
records (node sets plus the *boundary* nodes that touch another shard),
an O(1) node→shard map, and lazily built, cached per-shard subnetworks
and shard-pair *corridor* subgraphs (the union of two shards, including
every edge crossing between them) that the serving layer routes
cross-shard queries through.

Shards preserve global vertex ids, so paths computed inside a shard
subnetwork are valid paths of the full network and can be scored by any
model trained on the global vertex space.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, NoPathError, VertexNotFoundError
from repro.graph.csr import csr_for
from repro.graph.network import RoadNetwork
from repro.rng import RngLike, make_rng

__all__ = ["RegionShard", "GraphPartition", "CorridorCertificate",
           "grid_partition", "bfs_partition", "voronoi_partition",
           "partition_network", "PARTITION_METHODS"]


@dataclass(frozen=True)
class RegionShard:
    """One region of a partitioned network.

    ``boundary`` holds the shard's gateway nodes — members with at least
    one edge (either direction) whose other endpoint lives in a
    different shard.  Cross-shard corridors are stitched through these.
    """

    shard_id: int
    nodes: frozenset[int]
    boundary: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.nodes)

    @property
    def interior(self) -> frozenset[int]:
        return self.nodes - self.boundary

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
    Per-shard subnetworks and shard-pair corridor subgraphs are built
    lazily and memoised; both preserve global vertex ids, so a
    :class:`~repro.graph.path.Path` computed on either is a valid path
    of the parent network.
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
        self._subnetworks: dict[int, RoadNetwork] = {}
        self._corridors: dict[frozenset[int], RoadNetwork] = {}
        self._certificates: dict[frozenset[int], CorridorCertificate] = {}
        # Serialises memo construction: the serving engine's admission
        # workers route concurrently, and racing first-requests must not
        # each build (and later CSR-compile) their own copy of the same
        # subgraph.
        self._derive_lock = threading.Lock()

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

    def same_shard(self, a: int, b: int) -> bool:
        return self.shard_of(a) == self.shard_of(b)

    def shard(self, shard_id: int) -> RegionShard:
        if not 0 <= shard_id < len(self.shards):
            raise ConfigError(
                f"no shard {shard_id}; partition has {len(self.shards)}")
        return self.shards[shard_id]

    # ------------------------------------------------------------------
    # Derived subgraphs (cached)
    # ------------------------------------------------------------------
    def subnetwork(self, shard_id: int) -> RoadNetwork:
        """The sub-network induced by one shard's nodes (memoised)."""
        # Lock-free fast path: routing calls this per request, and a
        # memo hit must not contend on the build mutex.
        cached = self._subnetworks.get(shard_id)
        if cached is not None:
            return cached
        with self._derive_lock:
            cached = self._subnetworks.get(shard_id)
            if cached is None:
                cached = self.network.subgraph(
                    set(self.shard(shard_id).nodes))
                cached.name = f"{self.network.name}/shard-{shard_id}"
                self._subnetworks[shard_id] = cached
            return cached

    def corridor(self, shard_a: int, shard_b: int) -> RoadNetwork:
        """The boundary-stitched union subgraph of two shards (memoised).

        Contains every node of both shards and every edge whose
        endpoints lie inside the union — in particular all cut edges
        between the two regions, which is what makes cross-shard routing
        through the corridor possible without loading the full network.
        """
        if shard_a == shard_b:
            return self.subnetwork(shard_a)
        key = frozenset((shard_a, shard_b))
        cached = self._corridors.get(key)
        if cached is not None:
            return cached
        with self._derive_lock:
            cached = self._corridors.get(key)
            if cached is None:
                union = set(self.shard(shard_a).nodes) | set(
                    self.shard(shard_b).nodes)
                cached = self.network.subgraph(union)
                lo, hi = sorted(key)
                cached.name = f"{self.network.name}/corridor-{lo}-{hi}"
                self._corridors[key] = cached
            return cached

    def corridor_certificate(self, shard_a: int,
                             shard_b: int) -> "CorridorCertificate":
        """The exactness certificate for one shard pair (memoised)."""
        key = frozenset((shard_a, shard_b))
        cached = self._certificates.get(key)
        if cached is not None:
            return cached
        corridor = self.corridor(shard_a, shard_b)
        with self._derive_lock:
            cached = self._certificates.get(key)
            if cached is None:
                cached = CorridorCertificate(self.network, corridor)
                self._certificates[key] = cached
            return cached

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


class CorridorCertificate:
    """Per-query exactness certificate for a cross-shard corridor.

    A corridor (the union subgraph of the two endpoint shards) answers a
    cross-shard query exactly *unless* the true shortest path detours
    through a third shard.  Any such detour must pass through an
    **exterior gateway** — a vertex outside the corridor with an edge
    into it — so its cost is at least
    ``min over gateways w of  euclid(s, w) + euclid(w, t)``
    (an admissible bound for the length cost; divided by the network's
    maximum speed it bounds travel time).  When the corridor's own
    shortest-path cost does not exceed that bound, no exterior route can
    beat it and the corridor result is certified globally exact;
    otherwise the query must widen to the full network.

    The gateway set and its coordinate arrays are computed once per
    shard pair; certification is then one corridor point-to-point query
    plus a vectorised euclidean sweep.
    """

    #: Weight keys the euclidean gateway bound is admissible for.
    _GEOMETRIC_KEYS = ("length", "travel_time")

    def __init__(self, network: RoadNetwork, corridor: RoadNetwork) -> None:
        self.corridor = corridor
        kernel = csr_for(network)
        inside = set(corridor.vertex_ids())
        gateways: set[int] = set()
        for edge in network.edges():
            source_in = edge.source in inside
            target_in = edge.target in inside
            if source_in != target_in:
                gateways.add(edge.target if source_in else edge.source)
        self.num_gateways = len(gateways)
        gateway_indices = [kernel.index_of(vid) for vid in sorted(gateways)]
        self._gx = kernel.x[gateway_indices]
        self._gy = kernel.y[gateway_indices]
        self._x = kernel.x
        self._y = kernel.y
        self._index = kernel.index_of
        self._max_speed_mps = kernel._max_speed_mps

    def exterior_bound(self, source: int, target: int,
                       cost=None) -> float:
        """Lower bound on any ``source -> target`` path that leaves the
        corridor (``inf`` when no exterior gateway exists); ``-inf`` for
        custom costs, which the euclidean geometry cannot bound."""
        from repro.graph.shortest_path import length_cost, travel_time_cost

        if cost is None or cost is length_cost:
            key = "length"
        elif cost is travel_time_cost:
            key = "travel_time"
        else:
            return -np.inf
        if self.num_gateways == 0:
            return np.inf
        si = self._index(source)
        ti = self._index(target)
        via = (np.hypot(self._gx - self._x[si], self._gy - self._y[si])
               + np.hypot(self._gx - self._x[ti], self._gy - self._y[ti]))
        bound = float(via.min())
        if key == "travel_time":
            bound /= self._max_speed_mps
        return bound

    def decide(self, source: int, target: int, cost=None,
               backend: str | None = None) -> str:
        """Certify one query: ``"certified"`` (corridor is exact),
        ``"widened"`` (an exterior route could be shorter — or the cost
        is custom and unboundable), or ``"unreachable"`` (no corridor
        path; the caller should search the full network).
        """
        from repro.graph.shortest_path import length_cost, shortest_path_cost

        bound = self.exterior_bound(source, target, cost)
        if bound == -np.inf:
            return "widened"
        try:
            corridor_cost = shortest_path_cost(
                self.corridor, source, target,
                cost if cost is not None else length_cost, backend=backend)
        except NoPathError:
            return "unreachable"
        return "certified" if corridor_cost <= bound else "widened"


# ----------------------------------------------------------------------
# Undirected adjacency over the CSR arrays
# ----------------------------------------------------------------------
def _undirected_adjacency(kernel) -> list[list[int]]:
    """Symmetrised neighbour lists in CSR index space.

    Partition growth must not strand the tail of a one-way street in a
    foreign shard, so both edge directions count as adjacency.
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


def bfs_partition(network: RoadNetwork, num_shards: int,
                  rng: RngLike = 0) -> GraphPartition:
    """METIS-lite balanced BFS growth over the CSR arrays.

    Farthest-point seeds claim one region each; regions then grow one
    frontier vertex's unclaimed neighbourhood at a time, always
    expanding the currently smallest shard, so shard sizes stay
    balanced while each shard remains a contiguous BFS ball — exactly
    the "grow regions from spread-out seeds" core of multilevel
    partitioners, minus the coarsening/refinement machinery.  Vertices
    no frontier can reach (satellite components) join the smallest
    shard wholesale.
    """
    _check_num_shards(network, num_shards)
    kernel = csr_for(network)
    if num_shards == 1:
        return GraphPartition(network, {vid: 0 for vid in kernel.ids})
    adjacency = _undirected_adjacency(kernel)
    generator = make_rng(rng)
    seeds = _farthest_point_seeds(adjacency, num_shards, generator)

    n = kernel.num_vertices
    assignment = [-1] * n
    sizes = [0] * num_shards
    frontiers: list[deque[int]] = [deque() for _ in range(num_shards)]
    for shard_id, seed in enumerate(seeds):
        if assignment[seed] != -1:  # duplicate seed on a tiny graph
            seed = next(v for v in range(n) if assignment[v] == -1)
        assignment[seed] = shard_id
        sizes[shard_id] = 1
        frontiers[shard_id].append(seed)

    active = set(range(num_shards))
    while active:
        # Grow the smallest live shard by one frontier vertex's
        # unclaimed neighbourhood: balance emerges from the scheduling,
        # not from a post-hoc repair pass.
        shard_id = min(active, key=lambda s: (sizes[s], s))
        frontier = frontiers[shard_id]
        grew = False
        while frontier and not grew:
            u = frontier.popleft()
            for v in adjacency[u]:
                if assignment[v] == -1:
                    assignment[v] = shard_id
                    sizes[shard_id] += 1
                    frontier.append(v)
                    grew = True
        if not grew:
            active.discard(shard_id)

    for v in range(n):  # disconnected leftovers: flood each into the
        if assignment[v] != -1:  # smallest shard, keeping components whole
            continue
        shard_id = min(range(num_shards), key=lambda s: (sizes[s], s))
        component = deque([v])
        assignment[v] = shard_id
        sizes[shard_id] += 1
        while component:
            u = component.popleft()
            for w in adjacency[u]:
                if assignment[w] == -1:
                    assignment[w] = shard_id
                    sizes[shard_id] += 1
                    component.append(w)

    mapping = {kernel.ids[i]: assignment[i] for i in range(n)}
    return GraphPartition(network, _densify(mapping))


def grid_partition(network: RoadNetwork, num_shards: int,
                   rng: RngLike = 0) -> GraphPartition:
    """Spatial grid cells over the bounding box (CSR coordinate arrays).

    The cell grid is the ``rows x cols`` factorisation of a cell count
    ``>= num_shards`` whose cells best match the bounding box's aspect
    ratio; every *occupied* cell becomes a shard, so the realised shard
    count can land above (extra cells from the ceil factorisation) or
    below (empty cells collapse) the request on clustered geometry —
    read :attr:`GraphPartition.num_shards` back.  :func:`bfs_partition`
    is the topology-aware choice; this is the spatial baseline.
    """
    _check_num_shards(network, num_shards)
    kernel = csr_for(network)
    if num_shards == 1:
        return GraphPartition(network, {vid: 0 for vid in kernel.ids})
    xs, ys = kernel.x, kernel.y
    x_min, y_min = float(xs.min()), float(ys.min())
    span_x = max(float(xs.max()) - x_min, 1e-9)
    span_y = max(float(ys.max()) - y_min, 1e-9)
    # Pick rows/cols so cells are roughly square on this bounding box.
    best_rows, best_cols = 1, num_shards
    best_score = None
    for rows in range(1, num_shards + 1):
        cols = -(-num_shards // rows)  # ceil
        cell_aspect = (span_y / rows) / (span_x / cols)
        score = abs(cell_aspect - 1.0) + 0.01 * (rows * cols - num_shards)
        if best_score is None or score < best_score:
            best_rows, best_cols, best_score = rows, cols, score
    rows, cols = best_rows, best_cols

    def cell_of(i: int) -> int:
        cx = min(int((float(xs[i]) - x_min) / span_x * cols), cols - 1)
        cy = min(int((float(ys[i]) - y_min) / span_y * rows), rows - 1)
        return cy * cols + cx

    mapping = {kernel.ids[i]: cell_of(i) for i in range(kernel.num_vertices)}
    return GraphPartition(network, _densify(mapping))


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
    partitions into its towns plus their nearest highway approaches,
    which is the alignment that keeps same-shard queries' candidate
    paths inside their shard.  Unlike :func:`bfs_partition` there is no
    balance forcing — dense regions get big shards — making this the
    partitioner of choice when exactness of shard-local routing matters
    more than equal shard sizes.
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


PARTITION_METHODS = {"bfs": bfs_partition, "grid": grid_partition,
                     "voronoi": voronoi_partition}


def partition_network(network: RoadNetwork, num_shards: int,
                      method: str = "bfs",
                      rng: RngLike = 0) -> GraphPartition:
    """Partition ``network`` into ``num_shards`` regions by ``method``."""
    try:
        partitioner = PARTITION_METHODS[method]
    except KeyError:
        raise ConfigError(
            f"unknown partition method {method!r}; "
            f"choose from {sorted(PARTITION_METHODS)}") from None
    return partitioner(network, num_shards, rng=rng)
