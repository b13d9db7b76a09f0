"""Array-backed routing kernel: CSR graphs, buffer-reusing searches, ALT.

The dict-of-dataclasses :class:`~repro.graph.network.RoadNetwork` is the
*reference* routing substrate: clear, validated, and easy to test
against networkx.  It is also slow on the hot path — every edge
relaxation pays for an ``out_edges`` list copy, a cost-function call,
and dataclass attribute access, and Yen's algorithm multiplies that by
thousands of point-to-point searches per candidate-generation query.

:class:`CSRGraph` flattens a network once into compressed-sparse-row
arrays (``indptr``/``indices`` plus per-cost weight arrays for length
and travel time) and runs the same algorithms over plain scalar arrays:

* array Dijkstra (single-source, multi-source and early-exit
  point-to-point),
* A* with ALT (landmark) heuristics, and
* Yen's k-shortest-paths with spur searches guided by the exact
  distance to the target.

Distance / parent / visited buffers are preallocated once and reused
across calls via generation stamps, so repeated queries allocate almost
nothing.  Landmark lower bounds use farthest-point landmark selection
and triangle-inequality bounds from one stacked ``(2L, n)`` table whose
non-finite entries are all ``-inf``: the per-query bound skips the rows
that cannot bound the target and takes one in-place ``maximum`` per
remaining row, and the search reads it through a ``memoryview``.
Multi-source sweeps take a distance ``limit``, so a service-area sweep
stops at its largest budget instead of covering the whole network.

**Backend seam.**  Hot consumers (``yen_path_generator``, the
diversified generator, ``generate_candidates``, serving) dispatch
through :func:`resolve_backend` / :func:`csr_for` and convert kernel
results back to :class:`~repro.graph.path.Path` objects at the
boundary, so downstream code never sees CSR internals.  The kernel is
built once per network and cached: building it reads the network's
:attr:`~repro.graph.network.RoadNetwork.fingerprint`, which seals the
network against change, so a cached kernel never goes stale.  Set the
environment variable ``REPRO_ROUTING_BACKEND=dict`` (or call
:func:`set_routing_backend`) to force the reference implementation.
"""

from __future__ import annotations

import os
import threading
import weakref
from bisect import insort
from collections import OrderedDict
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from heapq import heappop, heappush
from itertools import count
from math import inf

import numpy as np

try:  # scipy ships with the environment but stays optional: the pure
    # Python kernel below answers every query, just slower on SSSP.
    from scipy.sparse import csr_matrix as _sp_csr_matrix
    from scipy.sparse.csgraph import dijkstra as _sp_dijkstra

    _HAVE_SCIPY = True
except ImportError:  # pragma: no cover - exercised only without scipy
    _HAVE_SCIPY = False

from repro.errors import (
    ConfigError,
    GraphError,
    NoPathError,
    VertexNotFoundError,
)
from repro.graph.network import RoadNetwork
from repro.graph.shortest_path import CostFunction, length_cost, travel_time_cost
from repro.rng import RngLike, make_rng

__all__ = [
    "CSRGraph",
    "csr_for",
    "csr_if_built",
    "install_csr",
    "get_routing_backend",
    "set_routing_backend",
    "use_routing_backend",
    "resolve_backend",
    "ALT_NUM_LANDMARKS",
    "ALT_MIN_VERTICES",
    "MULTI_SOURCE_SLAB_ELEMENTS",
]

#: Landmarks built per (network, cost) pair for the ALT heuristic.
ALT_NUM_LANDMARKS = 8

#: Below this vertex count Yen's searches run unguided: the plain array
#: Dijkstra already answers tiny-graph queries in microseconds.
ALT_MIN_VERTICES = 128

#: Custom cost functions get their per-edge weight arrays memoised in a
#: bounded FIFO so e.g. per-driver cost closures do not grow unbounded.
_CUSTOM_WEIGHT_CAP = 16

#: Relative slack on Yen's spur-search cap: search keys ``g + h`` and the
#: cap ``c - root_cost`` add the same weights in another order than the
#: candidate costs they bound, so they can be off by a few ulps.
_CAP_SLACK = 1.0 + 1e-9

#: Search-effort counters of :meth:`CSRGraph.profile_counters`.
_PROFILE_KEYS = ("sssp_runs", "p2p_runs", "astar_runs", "yen_runs",
                 "yen_spur_searches", "yen_spur_capped", "yen_spur_skipped",
                 "heap_pops", "settled", "alt_pruned")

#: Elements (float64) per multi-source distance slab: the default
#: ``chunk_size`` of :meth:`CSRGraph.multi_source` is derived from this
#: so a batched sweep never allocates more than ~32 MB per scipy call,
#: no matter how many sources the caller passes.
MULTI_SOURCE_SLAB_ELEMENTS = 4_000_000


def _edge_keys(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """``u * n + v`` for every CSR edge ``u -> v``, ascending in CSR
    order (out-edges are sorted by target)."""
    sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    return sources * n + indices


class CSRGraph:
    """A :class:`RoadNetwork` flattened into CSR arrays for fast routing.

    All public methods take and return *vertex ids* (the network's own
    identifiers); internal computation uses dense CSR indices.  Searches
    are serialised by an internal lock because the scratch buffers are
    shared; the kernel is therefore safe to use from the threaded
    serving layer.
    """

    def __init__(self, network: RoadNetwork) -> None:
        # Deliberately no strong reference to the network: csr_for keeps
        # kernels in a WeakKeyDictionary keyed by the network, and a
        # value -> key reference would pin every routed network forever.
        self.network_name = network.name
        #: Fingerprint of the (now sealed) network: it names the shared
        #: segment, and :func:`install_csr` refuses a kernel whose
        #: fingerprint is not the network's.
        self.fingerprint = network.fingerprint

        ids = sorted(network.vertex_ids())
        n = len(ids)
        self.num_vertices = n
        self.ids: list[int] = ids
        self._index: dict[int, int] = {vid: i for i, vid in enumerate(ids)}

        xs = np.empty(n, dtype=np.float64)
        ys = np.empty(n, dtype=np.float64)
        indptr = [0]
        indices: list[int] = []
        edges = []
        for i, vid in enumerate(ids):
            vertex = network.vertex(vid)
            xs[i] = vertex.x
            ys[i] = vertex.y
            out = sorted(network.out_edges(vid),
                         key=lambda e: self._index[e.target])
            for edge in out:
                indices.append(self._index[edge.target])
                edges.append(edge)
            indptr.append(len(indices))
        m = len(indices)
        self.num_edges = m
        self.x = xs
        self.y = ys
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self._indptr_list = indptr
        self._indices_list = indices
        self._edge_keys = _edge_keys(self.indptr, self.indices, n)
        self._edges = edges
        self._max_speed_mps = max((e.speed for e in edges), default=1.0) / 3.6

        self._weight_lists: dict[object, list[float]] = {
            "length": [e.length for e in edges],
            "travel_time": [e.travel_time for e in edges],
        }
        self._custom_order: OrderedDict[object, None] = OrderedDict()
        self._forward_adj: dict[object, list[list[tuple[int, float]]]] = {}
        self._reverse_adj: dict[object, list[list[tuple[int, float]]]] = {}
        self._matrices: dict[tuple[object, bool], object] = {}
        self._alt_tables: dict[object, tuple[np.ndarray, list[int]]] = {}

        # Scratch buffers, reused across searches via generation stamps:
        # an entry is valid for the current search only when its stamp
        # equals the current generation, so no O(n) reset per query.
        self._dist = [inf] * n
        self._parent = [-1] * n
        self._parent_w = [0.0] * n  # weight of the edge parent -> vertex
        self._seen = [0] * n
        self._done = [0] * n
        self._gen = 0
        self._lock = threading.Lock()
        # Guards the custom-weight LRU: an insertion and its move_to_end
        # must not straddle another thread's eviction.  Never held across
        # a search or a table build.
        self._memo_lock = threading.Lock()
        # Cumulative search-effort counters, read by profile_counters().
        # Updated in bulk at the end of each search (which already holds
        # self._lock), so the hot loops only touch local ints.
        self._profile: dict[str, int] = dict.fromkeys(_PROFILE_KEYS, 0)

    # ------------------------------------------------------------------
    # Weights and adjacency
    # ------------------------------------------------------------------
    def _weight_key(self, cost: CostFunction | None) -> object:
        if cost is None or cost is length_cost:
            return "length"
        if cost is travel_time_cost:
            return "travel_time"
        return cost

    def edge_weights(self, cost: CostFunction | None = None) -> list[float]:
        """Per-edge weights in CSR order for ``cost`` (evaluated once)."""
        key = self._weight_key(cost)
        weights = self._weight_lists.get(key)
        if weights is None:
            if self._edges is None:
                raise GraphError(
                    "custom cost functions are unavailable on a "
                    "shared-memory CSR replica (edge objects stay in the "
                    "owner process); precompute the weights there"
                )
            weights = [float(cost(edge)) for edge in self._edges]
            if not all(w >= 0 for w in weights):  # rejects NaN as well
                raise ValueError(
                    f"negative or NaN edge cost under {cost!r}; routing "
                    "requires non-negative costs"
                )
            self._remember_custom(key, weights)
        return weights

    def _remember_custom(self, key: object, weights: list[float]) -> None:
        with self._memo_lock:
            self._weight_lists[key] = weights
            self._custom_order[key] = None
            self._custom_order.move_to_end(key)
            while len(self._custom_order) > _CUSTOM_WEIGHT_CAP:
                stale, _ = self._custom_order.popitem(last=False)
                self._weight_lists.pop(stale, None)
                self._forward_adj.pop(stale, None)
                self._reverse_adj.pop(stale, None)
                self._alt_tables.pop(stale, None)
                self._matrices.pop((stale, False), None)
                self._matrices.pop((stale, True), None)

    def _forward(self, cost: CostFunction | None) -> list[list[tuple[int, float]]]:
        key = self._weight_key(cost)
        adj = self._forward_adj.get(key)
        if adj is None:
            weights = self.edge_weights(cost)
            indptr, indices = self._indptr_list, self._indices_list
            adj = [
                list(zip(indices[indptr[u]:indptr[u + 1]],
                         weights[indptr[u]:indptr[u + 1]]))
                for u in range(self.num_vertices)
            ]
            self._forward_adj[key] = adj
        return adj

    def _reverse(self, cost: CostFunction | None) -> list[list[tuple[int, float]]]:
        key = self._weight_key(cost)
        adj = self._reverse_adj.get(key)
        if adj is None:
            weights = self.edge_weights(cost)
            indptr, indices = self._indptr_list, self._indices_list
            adj = [[] for _ in range(self.num_vertices)]
            for u in range(self.num_vertices):
                for j in range(indptr[u], indptr[u + 1]):
                    adj[indices[j]].append((u, weights[j]))
            self._reverse_adj[key] = adj
        return adj

    def index_of(self, vertex_id: int) -> int:
        """The dense CSR index of a vertex id."""
        try:
            return self._index[vertex_id]
        except KeyError:
            raise VertexNotFoundError(vertex_id) from None

    def _edge_positions(self, verts: list[int]) -> list[int]:
        """CSR positions of a path's edges (``verts`` are CSR indices),
        in one vectorised lookup: edges sorted by source then target are
        sorted by ``u * n + v``, so no m-entry lookup dict is kept."""
        path = np.array(verts)
        return self._edge_keys.searchsorted(
            path[:-1] * self.num_vertices + path[1:]).tolist()

    def weight_array(self, cost: CostFunction | None = None) -> np.ndarray:
        """Per-edge weights in CSR order as a float64 array (shared:
        callers must not write to it).

        With scipy this is the forward matrix's ``.data``, which holds
        the weights in CSR order and is built once per cost; without
        scipy the weight list is converted on each call.
        """
        if _HAVE_SCIPY:
            return self._matrix(cost, False).data
        return np.asarray(self.edge_weights(cost), dtype=np.float64)

    def _matrix(self, cost: CostFunction | None, reverse: bool):
        """The scipy CSR matrix for a cost (transposed when ``reverse``)."""
        key = (self._weight_key(cost), reverse)
        matrix = self._matrices.get(key)
        if matrix is None:
            weights = np.asarray(self.edge_weights(cost), dtype=np.float64)
            matrix = _sp_csr_matrix(
                (weights, self.indices, self.indptr),
                shape=(self.num_vertices, self.num_vertices),
            )
            if reverse:
                matrix = matrix.T.tocsr()
            self._matrices[key] = matrix
        return matrix

    def _single_source_idx(self, source: int, cost: CostFunction | None,
                           reverse: bool = False) -> np.ndarray:
        """Distances from one CSR index to all vertices (or *to* it when
        ``reverse``), through scipy's C implementation when present."""
        if _HAVE_SCIPY:
            return _sp_dijkstra(self._matrix(cost, reverse), directed=True,
                                indices=source)
        adj = self._reverse(cost) if reverse else self._forward(cost)
        return self._sssp_array(source, adj)

    def default_chunk_size(self) -> int:
        """Sources per multi-source slab so one slab stays ~bounded.

        Each scipy sweep materialises a ``(chunk, n)`` float64 block;
        capping the element count (rather than the row count) keeps the
        transient allocation near :data:`MULTI_SOURCE_SLAB_ELEMENTS`
        (~32 MB) regardless of graph size.
        """
        return max(1, MULTI_SOURCE_SLAB_ELEMENTS // max(1, self.num_vertices))

    def _multi_source_idx(self, sources: list[int], cost: CostFunction | None,
                          reverse: bool = False,
                          chunk_size: int | None = None) -> np.ndarray:
        """Distance rows for many CSR-index sources, in bounded slabs.

        Returns a ``(len(sources), n)`` matrix.  With scipy, sources go
        through batched ``dijkstra`` calls of at most ``chunk_size``
        rows each (default :meth:`default_chunk_size`), amortising the
        per-call validation/dispatch overhead that dominates batch
        table builds (ALT landmarks, analysis sweeps) without ever
        materialising more than one slab beyond the result itself;
        without scipy, the pure-Python kernel runs once per source.
        """
        n = self.num_vertices
        if not sources:
            return np.zeros((0, n), dtype=np.float64)
        out = np.empty((len(sources), n), dtype=np.float64)
        for start, rows in self._iter_multi_source_idx(
                sources, cost, reverse=reverse, chunk_size=chunk_size):
            out[start:start + rows.shape[0]] = rows
        return out

    def _iter_multi_source_idx(self, sources: list[int],
                               cost: CostFunction | None,
                               reverse: bool = False,
                               chunk_size: int | None = None,
                               limit: float = inf):
        """Yield ``(start, rows)`` distance slabs for CSR-index sources.

        ``rows`` is a ``(<= chunk_size, n)`` float64 block covering
        ``sources[start:start + rows.shape[0]]``; only one slab is live
        at a time, which is what bounds multi-source memory.  Distances
        above ``limit`` read ``inf``: scipy stops each sweep there, the
        pure-Python path masks them, and a distance equal to ``limit``
        stays finite on both.
        """
        if chunk_size is None:
            chunk_size = self.default_chunk_size()
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        adj = None
        if not _HAVE_SCIPY:
            adj = self._reverse(cost) if reverse else self._forward(cost)
        for start in range(0, len(sources), chunk_size):
            chunk = sources[start:start + chunk_size]
            if _HAVE_SCIPY:
                rows = np.atleast_2d(_sp_dijkstra(self._matrix(cost, reverse),
                                                  directed=True, indices=chunk,
                                                  limit=limit))
            else:
                rows = np.vstack([self._sssp_array(source, adj)
                                  for source in chunk])
                if limit < inf:
                    rows[rows > limit] = inf
            yield start, rows

    # ------------------------------------------------------------------
    # Core searches (CSR indices)
    # ------------------------------------------------------------------
    def _sssp_array(self, source: int,
                    adj: list[list[tuple[int, float]]]) -> np.ndarray:
        """Full single-source distances as an array indexed by CSR index.

        The tightest loop in the kernel: no target, ban, or heuristic
        checks — just heap pops and scalar relaxations over flat lists.
        """
        with self._lock:
            self._gen += 1
            gen = self._gen
            dist, seen, done = self._dist, self._seen, self._done
            dist[source] = 0.0
            seen[source] = gen
            heap = [(0.0, source)]
            push, pop = heappush, heappop
            pops = settled = 0
            while heap:
                d, u = pop(heap)
                pops += 1
                if done[u] == gen:
                    continue
                done[u] = gen
                settled += 1
                for v, w in adj[u]:
                    if done[v] == gen:
                        continue
                    nd = d + w
                    if seen[v] != gen or nd < dist[v]:
                        dist[v] = nd
                        seen[v] = gen
                        push(heap, (nd, v))
            profile = self._profile
            profile["sssp_runs"] += 1
            profile["heap_pops"] += pops
            profile["settled"] += settled
            out = np.array(dist, dtype=np.float64)
            out[np.asarray(seen) != gen] = np.inf
            return out

    def _p2p(
        self,
        source: int,
        target: int,
        adj: list[list[tuple[int, float]]],
        h: list[float] | memoryview | None = None,
        banned_vertices: Iterable[int] = (),
        banned_next: Iterable[int] = (),
        bound: float = inf,
    ) -> tuple[list[int], float] | None:
        """:meth:`_search` without the edge weights: ``(path, cost)``."""
        result = self._search(source, target, adj, h, banned_vertices,
                              banned_next, bound)
        return None if result is None else result[:2]

    def _search(
        self,
        source: int,
        target: int,
        adj: list[list[tuple[int, float]]],
        h: list[float] | memoryview | None = None,
        banned_vertices: Iterable[int] = (),
        banned_next: Iterable[int] = (),
        bound: float = inf,
    ) -> tuple[list[int], float, list[float]] | None:
        """Point-to-point search with optional heuristic and bans.

        Returns ``(vertex_index_path, cost, edge_weights)`` or ``None``
        when the target is unreachable; ``edge_weights`` are the weights
        of the path's edges in path order, so a caller can sum any part
        of the path without looking edges up.  With an admissible
        consistent ``h`` this is A*; with ``h=None`` it is Dijkstra with
        early exit.

        ``bound`` caps the search: the first live entry popped with a
        key (``g + h``, or ``g`` without a heuristic) above it ends the
        search with ``None``.  Only Yen's deferred spur searches pass
        one, the cost cap as it stands when they run.

        ``banned_vertices`` are never entered: they are stamped as
        already settled, so the relaxation loop needs no separate ban
        test.  ``banned_next`` bans the edges ``source -> v`` and is
        consulted only while the source is expanded, which happens
        before the main loop — Yen, the only caller that bans edges,
        bans none that leave another vertex.
        """
        with self._lock:
            self._gen += 1
            gen = self._gen
            dist, seen, done, parent, parent_w = (
                self._dist, self._seen, self._done, self._parent,
                self._parent_w)
            for v in banned_vertices:
                done[v] = gen
            if done[source] == gen or done[target] == gen:
                return None
            dist[source] = 0.0
            seen[source] = gen
            parent[source] = -1
            done[source] = gen
            heap: list[tuple[float, int]] = []
            push, pop = heappush, heappop
            pops = settled = 1  # the source, expanded here
            if source != target:
                for v, w in adj[source]:
                    if done[v] == gen or v in banned_next:
                        continue
                    if seen[v] != gen or w < dist[v]:
                        dist[v] = w
                        seen[v] = gen
                        parent[v] = source
                        parent_w[v] = w
                        push(heap, (w if h is None else w + h[v], v))
            capped = False
            while heap:
                key, u = pop(heap)
                pops += 1
                if done[u] == gen:
                    continue
                if key > bound:
                    capped = True
                    break
                done[u] = gen
                settled += 1
                if u == target:
                    break
                d = dist[u]
                for v, w in adj[u]:
                    if done[v] == gen:
                        continue
                    nd = d + w
                    if seen[v] != gen or nd < dist[v]:
                        dist[v] = nd
                        seen[v] = gen
                        parent[v] = u
                        parent_w[v] = w
                        push(heap, (nd if h is None else nd + h[v], v))
            profile = self._profile
            profile["astar_runs" if h is not None else "p2p_runs"] += 1
            profile["heap_pops"] += pops
            profile["settled"] += settled
            if capped:
                profile["yen_spur_capped"] += 1
            elif h is not None:
                # Entries still queued when the target settled: frontier
                # the goal-directed heuristic never had to expand.
                profile["alt_pruned"] += len(heap)
            if done[target] != gen:
                return None
            path = [target]
            hops: list[float] = []
            node = target
            while node != source:
                hops.append(parent_w[node])
                node = parent[node]
                path.append(node)
            path.reverse()
            hops.reverse()
            return path, dist[target], hops

    # ------------------------------------------------------------------
    # ALT landmarks
    # ------------------------------------------------------------------
    def ensure_alt(
        self,
        cost: CostFunction | None = None,
        num_landmarks: int = ALT_NUM_LANDMARKS,
        rng: RngLike = None,
    ) -> list[int]:
        """Build (or reuse) landmark tables for ``cost``; returns the
        landmark vertex ids.

        Selection is a random first landmark, then farthest-point
        additions (Goldberg & Harrelson's ALT), spreading
        landmarks to the periphery where the triangle-inequality bounds
        are tightest.  Tables hold distances both *from* and *to* every
        landmark (the reverse search runs on the transposed CSR arrays).
        """
        key = self._weight_key(cost)
        cached = self._alt_tables.get(key)
        if cached is not None:
            return [self.ids[i] for i in cached[1]]
        if num_landmarks < 1:
            raise ValueError(f"num_landmarks must be >= 1, got {num_landmarks}")
        generator = make_rng(rng)
        n = self.num_vertices
        num_landmarks = min(num_landmarks, n)

        # Farthest-point selection is inherently sequential in the
        # *forward* distances (each pick depends on the previous rows),
        # but the reverse half of the tables is not: it runs as a
        # batched multi-source sweep (bounded slabs via the default
        # chunk size) once the landmark set is fixed, halving the
        # number of Dijkstra calls per build.
        landmarks = [int(generator.integers(n))]
        from_rows = [self._single_source_idx(landmarks[0], cost)]
        while len(landmarks) < num_landmarks:
            nearest = np.min(np.vstack(from_rows), axis=0)
            nearest[~np.isfinite(nearest)] = -1.0
            nearest[landmarks] = -1.0
            candidate = int(np.argmax(nearest))
            if nearest[candidate] <= 0.0:
                break
            landmarks.append(candidate)
            from_rows.append(self._single_source_idx(candidate, cost))
        to_rows = self._multi_source_idx(landmarks, cost, reverse=True)

        #: One (2L, n) table: row j holds d(v -> L_j), row L + j holds
        #: -d(L_j -> v), so both triangle bounds are ``D[:, v] - D[:, t]``.
        #: Every non-finite entry (v cannot reach L_j, or L_j cannot
        #: reach v) is stored as -inf, so no difference is ever NaN or
        #: +inf and an unusable one can never beat the bound 0.
        table = np.concatenate([to_rows, -np.vstack(from_rows)])
        table[~np.isfinite(table)] = -inf
        self._alt_tables[key] = (table, landmarks)
        return [self.ids[i] for i in landmarks]

    def _alt_heuristic(self, key: object, target: int) -> memoryview | None:
        """Vectorised ALT lower bounds towards ``target`` (CSR index),
        or ``None`` when no tables exist for this cost.

        ``h[v] = max(0, max_r (D[r, v] - D[r, t]))`` over the rows of
        the stacked table: ``d(v, L) - d(t, L)`` and ``d(L, t) - d(L, v)``
        (negation is exact, so the second is the same float either
        way).  A row whose ``D[r, t]`` is ``-inf`` (the target misses
        that landmark distance) bounds nothing and is skipped; in every
        other row a ``-inf`` entry gives a ``-inf`` difference, which
        never beats 0.  The result is a ``memoryview`` over a fresh
        float64 array, so the search reads ``h[v]`` as a Python float
        without a list copy of all n bounds.
        """
        cached = self._alt_tables.get(key)
        if cached is None:
            return None
        table = cached[0]
        h = np.zeros(self.num_vertices)
        scratch = np.empty_like(h)
        for row, at_target in zip(table, table[:, target].tolist()):
            if at_target != -inf:
                np.maximum(h, np.subtract(row, at_target, out=scratch),
                           out=h)
        return memoryview(h)

    def _potential(self, cost: CostFunction | None, target: int,
                   use_alt: bool | None) -> list[float] | None:
        """Yen's A* potential towards ``target`` (CSR index), or
        ``None`` for unguided Dijkstra.

        The potential is exact: ``h[v] = d(v, target)`` from one reverse
        single-source search (``inf`` where ``v`` cannot reach the
        target).  Bans only remove edges, so it stays admissible and
        consistent for every spur search of the query.

        It guides exactly the searches ALT used to guide: ``use_alt=True``
        always, ``False`` never, and ``None`` on networks of at least
        :data:`ALT_MIN_VERTICES` vertices or wherever landmark tables for
        ``cost`` were built (:meth:`ensure_alt`).  Other small networks
        keep unguided Dijkstra and its tie order.
        """
        if use_alt is False or (
                use_alt is None and self.num_vertices < ALT_MIN_VERTICES
                and self._weight_key(cost) not in self._alt_tables):
            return None
        return self._single_source_idx(target, cost, reverse=True).tolist()

    # ------------------------------------------------------------------
    # Public queries (vertex ids)
    # ------------------------------------------------------------------
    def single_source(self, source_id: int,
                      cost: CostFunction | None = None) -> np.ndarray:
        """Distances from ``source_id`` to every vertex, by CSR index
        (``numpy.inf`` where unreachable)."""
        return self._single_source_idx(self.index_of(source_id), cost)

    def multi_source(self, source_ids: Iterable[int],
                     cost: CostFunction | None = None,
                     reverse: bool = False,
                     chunk_size: int | None = None) -> np.ndarray:
        """Distance rows for many sources in batched sweeps.

        Returns a ``(num_sources, num_vertices)`` matrix indexed by CSR
        index (``numpy.inf`` where unreachable); row ``i`` holds the
        distances *from* ``source_ids[i]`` (or *to* it when
        ``reverse``).  Sources are swept in slabs of at most
        ``chunk_size`` rows (default :meth:`default_chunk_size`, sized
        so one slab stays ~32 MB), so batch products stay bounded in
        transient memory while still amortising the per-call overhead.
        Callers that reduce rows as they go should prefer
        :meth:`iter_multi_source`, which never holds the full matrix.
        """
        sources = [self.index_of(vid) for vid in source_ids]
        return self._multi_source_idx(sources, cost, reverse=reverse,
                                      chunk_size=chunk_size)

    def iter_multi_source(self, source_ids: Iterable[int],
                          cost: CostFunction | None = None,
                          reverse: bool = False,
                          chunk_size: int | None = None,
                          limit: float = inf,
                          ) -> Iterator[tuple[int, np.ndarray]]:
        """Stream multi-source distance slabs as ``(start, rows)`` pairs.

        ``rows[i]`` holds the distances for ``source_ids[start + i]``;
        at most ``chunk_size`` rows (default :meth:`default_chunk_size`)
        are live per step.  This is the memory-bounded primitive behind
        :meth:`multi_source` and the ``repro.analytics`` batch products,
        which reduce each slab (isochrone membership, OD columns) and
        drop it before the next sweep.  Distances above ``limit`` read
        ``inf`` (the sweeps stop there); the others are the unlimited
        ones, a distance equal to ``limit`` included.
        """
        sources = [self.index_of(vid) for vid in source_ids]
        yield from self._iter_multi_source_idx(sources, cost, reverse=reverse,
                                               chunk_size=chunk_size,
                                               limit=limit)

    def sssp_parents(self, source_id: int, cost: CostFunction | None = None,
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Full SSSP tree: ``(dist, parent)`` arrays by CSR index.

        ``parent[v]`` is the CSR index of ``v``'s predecessor on the
        least-cost path from ``source_id`` (-1 for the source itself and
        for unreachable vertices, whose ``dist`` is ``inf``).  Among
        tight predecessors (``dist[u] + w == dist[v]``) it is the one
        with the least ``(dist[u], u)``: the first settled by a heap
        that orders ties by CSR index — which equals ascending-vertex-id
        order, the same tie-break as the dict-backend reference
        :func:`repro.graph.shortest_path.dijkstra` — so batched path
        reconstructions (route frequencies) match the per-query
        reference tree exactly, not just in cost.

        With scipy the tree comes from its C Dijkstra's distances and
        one numpy pass over the tight edges.  That settle order only holds
        while every tight edge climbs to a larger distance, so a tree
        with a tight edge between equal distances (a zero-weight
        plateau, or a weight absorbed by a large ``dist``) runs the
        heap loop instead, as does every tree without scipy.
        """
        source = self.index_of(source_id)
        if _HAVE_SCIPY:
            dist = self._single_source_idx(source, cost)
            parent = self._tight_parents(dist, cost)
            if parent is not None:
                with self._lock:
                    self._profile["sssp_runs"] += 1
                return dist, parent
        return self._sssp_parents_loop(source, cost)

    def _tight_parents(self, dist: np.ndarray,
                       cost: CostFunction | None) -> np.ndarray | None:
        """Each vertex's tight predecessor with the least ``(dist[u],
        u)``, or ``None`` when some tight edge joins equal distances."""
        n = self.num_vertices
        tails = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        heads = self.indices
        weights = self.weight_array(cost)
        dist_tails = dist[tails]
        dist_heads = dist[heads]
        tight = np.flatnonzero((dist_tails + weights == dist_heads)
                               & np.isfinite(dist_heads))
        tails, heads, dist_tails = tails[tight], heads[tight], dist_tails[tight]
        if np.any(dist_tails == dist_heads[tight]):
            return None
        parent = np.full(n, -1, dtype=np.int64)
        parent[heads] = tails
        # Heads reached by several tight edges (exact ties) take the
        # least (dist[u], u): one lexsort over just those edges.
        tied = np.flatnonzero(np.bincount(heads, minlength=n)[heads] > 1)
        if tied.size:
            order = tied[np.lexsort((tails[tied], dist_tails[tied],
                                     heads[tied]))]
            tails, heads = tails[order], heads[order]
            first = np.ones(len(heads), dtype=bool)
            first[1:] = heads[1:] != heads[:-1]
            parent[heads[first]] = tails[first]
        return parent

    def _sssp_parents_loop(self, source: int, cost: CostFunction | None,
                           ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`sssp_parents` by a full-settle heap loop."""
        adj = self._forward(cost)
        with self._lock:
            self._gen += 1
            gen = self._gen
            dist, seen, done, parent = (self._dist, self._seen, self._done,
                                        self._parent)
            dist[source] = 0.0
            seen[source] = gen
            parent[source] = -1
            heap = [(0.0, source)]
            push, pop = heappush, heappop
            pops = settled = 0
            while heap:
                d, u = pop(heap)
                pops += 1
                if done[u] == gen:
                    continue
                done[u] = gen
                settled += 1
                for v, w in adj[u]:
                    if done[v] == gen:
                        continue
                    nd = d + w
                    if seen[v] != gen or nd < dist[v]:
                        dist[v] = nd
                        seen[v] = gen
                        parent[v] = u
                        push(heap, (nd, v))
            profile = self._profile
            profile["sssp_runs"] += 1
            profile["heap_pops"] += pops
            profile["settled"] += settled
            out_dist = np.array(dist, dtype=np.float64)
            out_parent = np.array(parent, dtype=np.int64)
            unreached = np.asarray(seen) != gen
            out_dist[unreached] = np.inf
            out_parent[unreached] = -1
            return out_dist, out_parent

    def shortest_path_ids(
        self,
        source_id: int,
        target_id: int,
        cost: CostFunction | None = None,
    ) -> tuple[list[int], float]:
        """Least-cost path as vertex ids, plus its cost.

        Uses ALT-guided A* when landmark tables already exist for this
        cost (built by :meth:`ensure_alt`), plain early-exit Dijkstra
        otherwise.  Raises :class:`NoPathError` when unreachable.
        """
        if source_id == target_id:
            raise NoPathError(source_id, target_id)
        source = self.index_of(source_id)
        target = self.index_of(target_id)
        key = self._weight_key(cost)
        h = self._alt_heuristic(key, target) if key in self._alt_tables else None
        result = self._p2p(source, target, self._forward(cost), h)
        if result is None:
            raise NoPathError(source_id, target_id)
        path, total = result
        ids = self.ids
        return [ids[i] for i in path], total

    def shortest_path_cost(self, source_id: int, target_id: int,
                           cost: CostFunction | None = None) -> float:
        """The least cost between two vertices (0.0 for equal ids)."""
        if source_id == target_id:
            return 0.0
        return self.shortest_path_ids(source_id, target_id, cost)[1]

    # ------------------------------------------------------------------
    # Yen's k shortest paths
    # ------------------------------------------------------------------
    def yen_ids(
        self,
        source_id: int,
        target_id: int,
        cost: CostFunction | None = None,
        max_paths: int | None = None,
        use_alt: bool | None = None,
    ) -> Iterator[tuple[tuple[int, ...], float]]:
        """Yield ``(vertex_ids, cost)`` for loopless paths in
        non-decreasing cost order (Yen, 1971).

        The sequence is the one plain Yen yields over this kernel's
        searches, order among equal costs included, and agrees with the
        reference generator in ``ksp.py`` wherever costs are distinct
        (the two lanes may resolve a tie differently).  The enumeration
        itself does not mirror the reference: :meth:`yen_indices` does
        each search once, guided by the exact distance to the target,
        decides the spur searches the cap rules out without running
        them, and runs the others only when their spur reaches the top
        of the queue.  ``use_alt`` selects that guidance (see
        :meth:`_potential`).
        """
        ids = self.ids
        for verts, total in self.yen_indices(source_id, target_id, cost,
                                             max_paths, use_alt):
            yield tuple(ids[i] for i in verts), total

    def yen_indices(
        self,
        source_id: int,
        target_id: int,
        cost: CostFunction | None = None,
        max_paths: int | None = None,
        use_alt: bool | None = None,
    ) -> Iterator[tuple[list[int], float]]:
        """:meth:`yen_ids` for consumers that stay on the kernel: same
        arguments, but each path is a list of CSR indices (not to be
        mutated).

        This is Yen's enumeration with the repeated work taken out; the
        yielded sequence is the plain algorithm's, ties included.

        * Every candidate carries its *deviation index* — the spur index
          it was found at — and an accepted path is spurred only from
          that index on (Lawler, 1972).  Each spur stands for a set of
          paths: those that start with its root and leave it by an edge
          its ban set allows.  An accepted path's spurs split its own
          set less itself, so the sets stay disjoint: no search returns
          a path another spur holds or one already yielded, and the
          searches plain Yen runs at earlier indices only find paths it
          already holds.
        * The ban set of a root — the next vertices of all accepted
          paths that start with it — is the key set of that root's node
          in a prefix trie of nested dicts, which each accepted path
          extends from its deviation index, instead of being rebuilt by
          scanning the accepted paths.
        * Every banned edge leaves the spur vertex, so the bans go to
          :meth:`_search` as ``banned_next`` and cost the spur search
          nothing past its first expansion.
        * Every candidate carries its edge weights, which
          :meth:`_search` returns with each spur path; the root costs of
          an accepted path are the running sums of its weights, the same
          additions in the same order as summing looked-up edges.
        * A spur search does not run when its spur is found (Kurz &
          Mutzel, 2016).  The spur is queued under the counter drawn
          then, keyed by the key of the search's first pop:
          ``root_cost + min(w + h[v])`` over its allowed out-edges, less
          :data:`_CAP_SLACK` for rounding, a lower bound on the cost of
          the path the search returns.  The search runs when the entry
          reaches the top of the queue, and its path goes back on the
          queue with its exact cost and the same counter.  A found path
          reaches the top only after every deferred search that could
          beat it in ``(cost, counter)`` has run, so the pops are plain
          Yen's; searches still queued when ``max_paths`` paths are out
          never run.  The search reads its ban set from the trie when it
          runs, and that set is still the one the spur had when it was
          found: a path accepted in between that added a key to the
          spur's node would lie in the spur's own set, which only the
          spur's own search can return.
        * Under ``max_paths``, with ``room = max_paths - produced`` paths
          still to yield, each spur search is capped at the cost ``c`` of
          the ``room``-th cheapest found candidate (plus
          :data:`_CAP_SLACK`): the next ``room`` pops all cost at most
          ``c``, so a path costing more is never yielded.  Deferred
          spurs add nothing to the cap until their search runs, which
          only leaves it looser.
        * The first pop's key decides some spurs without a search: when
          it exceeds the cap, or no allowed edge leads towards the
          target, the search would return ``None`` (``yen_spur_skipped``;
          also ``yen_spur_capped`` when the cap decided it).  Deferred
          searches that never run count in ``yen_spur_skipped`` too.

        Searches are A* under the exact potential of :meth:`_potential`
        — one reverse search from the target per query — wherever they
        used to be ALT-guided; ``use_alt=False`` and small networks
        without landmark tables run unguided Dijkstra.  No landmark
        tables are built.
        """
        if max_paths is not None and max_paths < 1:
            raise ValueError(f"max_paths must be positive, got {max_paths}")
        if source_id == target_id:
            raise NoPathError(source_id, target_id)
        s = self.index_of(source_id)
        t = self.index_of(target_id)
        adj = self._forward(cost)
        h = self._potential(cost, t, use_alt)

        with self._lock:
            self._profile["yen_runs"] += 1
        first = self._search(s, t, adj, h)
        if first is None:
            raise NoPathError(source_id, target_id)

        verts, total, hops = first
        yield verts, total

        deviation = 0
        counter = count()
        # Found paths as ``(cost, n, verts, deviation, hops)``; deferred
        # searches as ``(key, n, verts, i, hops, node, root_cost)`` for
        # the spur at index ``i`` of accepted path ``verts``, whose ban
        # set is the key set of trie node ``node``.
        candidates: list[tuple] = []
        # Prefix trie over the accepted paths: a node maps each vertex
        # that follows its prefix in some accepted path to the child
        # node, so its keys are the prefix's ban set.  The root is [s].
        trie: dict[int, dict] = {}
        produced = 1
        capping = max_paths is not None
        costs: list[float] = []  # queued found paths' costs, sorted
        # The pre-check's potential: ``h``, or zero for unguided searches.
        reach = h if h is not None else [0.0] * self.num_vertices
        first_key_of = self._spur_ruled_out
        spurs = skipped = capped = deferred = 0
        try:
            while max_paths is None or produced < max_paths:
                room = max_paths - produced if capping else 0
                cap = costs[room - 1] * _CAP_SLACK \
                    if capping and len(costs) >= room else inf
                node = trie
                root_cost = 0.0
                for i in range(deviation):
                    node = node[verts[i + 1]]
                    root_cost += hops[i]
                root = set(verts[:deviation])
                for i in range(deviation, len(verts) - 1):
                    spur = verts[i]
                    after = node.setdefault(verts[i + 1], {})
                    root.add(spur)
                    spurs += 1
                    bound = cap - root_cost
                    first_key = first_key_of(adj, reach, spur, node, root,
                                             bound)
                    if first_key == inf:
                        skipped += 1
                        if bound < inf:
                            capped += 1
                    else:
                        deferred += 1
                        heappush(candidates,
                                 ((root_cost + first_key) / _CAP_SLACK,
                                  next(counter), verts, i, hops, node,
                                  root_cost))
                    node = after
                    root_cost += hops[i]

                while candidates:
                    entry = heappop(candidates)
                    if len(entry) == 5:
                        break
                    _, n, path, i, path_hops, node, root_cost = entry
                    deferred -= 1
                    cap = costs[room - 1] * _CAP_SLACK \
                        if capping and len(costs) >= room else inf
                    result = self._search(path[i], t, adj, h, path[:i],
                                          node, cap - root_cost)
                    if result is not None:
                        spur_verts, spur_cost, spur_hops = result
                        found_cost = root_cost + spur_cost
                        if capping:
                            insort(costs, found_cost)
                        heappush(candidates, (found_cost, n,
                                              path[:i] + spur_verts, i,
                                              path_hops[:i] + spur_hops))
                else:
                    return
                total, _, verts, deviation, hops = entry
                if capping:
                    del costs[0]
                produced += 1
                yield verts, total
        finally:
            skipped += deferred  # queued searches that never ran
            with self._lock:
                profile = self._profile
                profile["yen_spur_searches"] += spurs
                profile["yen_spur_skipped"] += skipped
                profile["yen_spur_capped"] += capped

    @staticmethod
    def _spur_ruled_out(adj: list[list[tuple[int, float]]],
                        potential: list[float], spur: int,
                        banned_next: Iterable[int], root: set[int],
                        bound: float) -> float:
        """The key of the first pop of Yen's spur search from ``spur``,
        computed without running it, or ``inf`` when the search would
        return ``None``.

        That key is the smallest ``w + potential[v]`` over the spur's
        allowed out-edges: ``v`` not in ``banned_next`` and not in
        ``root``, the root path's vertices with the spur itself.  Above
        ``bound`` the cap ends the search there; with no allowed edge,
        or none towards the target, it is ``inf`` already.  Otherwise
        the key plus the root's cost is a lower bound on the cost of the
        path the search returns.
        """
        first_key = inf
        for v, w in adj[spur]:
            w += potential[v]
            if w < first_key and v not in banned_next and v not in root:
                first_key = w
        return first_key if first_key <= bound else inf

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    def profile_counters(self) -> dict[str, int]:
        """Cumulative search-effort counters since this kernel was built.

        Per-search-kind run counts plus the three effort numbers that
        predict routing cost: ``heap_pops`` (priority-queue work),
        ``settled`` (vertices finalised), and ``alt_pruned`` (frontier
        entries an ALT/A* early exit never had to expand), plus
        ``yen_spur_capped`` (spur searches Yen's cost cap ruled out:
        ended before the target settled, or decided up front because
        no first hop fits under the cap) and ``yen_spur_skipped`` (spur
        searches that never ran: decided up front, by the cap or
        because no first hop is allowed or leads to the target, or
        deferred and still queued when the enumeration stopped).
        Serving publishes these under ``kernel.routing.*``.
        """
        with self._lock:
            return dict(self._profile)

    # ------------------------------------------------------------------
    # Shared-memory export / import (repro.exec)
    # ------------------------------------------------------------------
    def shared_key(self) -> str:
        """Content key for shared-memory export: ``csr:<digest>``."""
        return f"csr:{self.fingerprint[2]}"

    def shared_payload(self) -> tuple[dict[str, np.ndarray], dict[str, object]]:
        """The kernel's immutable hot-state as ``(arrays, meta)``.

        Arrays are everything a worker process needs to route: CSR
        topology, coordinates, vertex ids, the built-in weight arrays,
        and any ALT landmark tables already built for the built-in
        costs.  Exporting the *built* tables matters for parity:
        landmark selection starts from a random vertex, so a replica
        rebuilding its own tables could break ties differently from the
        owner.  Custom cost functions are deliberately not exported —
        they are closures over edge objects, which stay owner-side.
        """
        arrays: dict[str, np.ndarray] = {
            "indptr": self.indptr,
            "indices": self.indices,
            "x": self.x,
            "y": self.y,
            "ids": np.asarray(self.ids, dtype=np.int64),
        }
        weight_keys = [key for key in ("length", "travel_time")
                       if key in self._weight_lists]
        for key in weight_keys:
            arrays[f"w:{key}"] = np.asarray(self._weight_lists[key],
                                            dtype=np.float64)
        alt_keys = []
        with self._lock:
            for key in ("length", "travel_time"):
                cached = self._alt_tables.get(key)
                if cached is None:
                    continue
                table, landmarks = cached
                arrays[f"alt:{key}:table"] = table
                arrays[f"alt:{key}:landmarks"] = np.asarray(landmarks,
                                                            dtype=np.int64)
                alt_keys.append(key)
        meta: dict[str, object] = {
            "network_name": self.network_name,
            "fingerprint": list(self.fingerprint),
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "max_speed_mps": self._max_speed_mps,
            "weight_keys": weight_keys,
            "alt_keys": alt_keys,
        }
        return arrays, meta

    @classmethod
    def from_shared(cls, arrays: dict[str, np.ndarray],
                    meta: dict[str, object]) -> "CSRGraph":
        """Rebuild a routing kernel from a shared segment's payload.

        Topology and coordinate arrays stay zero-copy views into the
        segment; the pure-Python search loops want plain lists, so the
        weight/indptr/indices lists are materialised once per process
        (cheap relative to a spawn, and private to the worker).  The
        replica has no edge objects: custom cost functions raise
        :class:`~repro.errors.GraphError` (see :meth:`edge_weights`).
        """
        kernel = cls.__new__(cls)
        kernel.network_name = meta["network_name"]
        kernel.fingerprint = tuple(meta["fingerprint"])
        n = int(meta["num_vertices"])
        kernel.num_vertices = n
        kernel.ids = [int(vid) for vid in arrays["ids"]]
        kernel._index = {vid: i for i, vid in enumerate(kernel.ids)}
        kernel.num_edges = int(meta["num_edges"])
        kernel.x = arrays["x"]
        kernel.y = arrays["y"]
        kernel.indptr = arrays["indptr"]
        kernel.indices = arrays["indices"]
        kernel._indptr_list = arrays["indptr"].tolist()
        kernel._indices_list = arrays["indices"].tolist()
        kernel._edge_keys = _edge_keys(kernel.indptr, kernel.indices, n)
        kernel._edges = None
        kernel._max_speed_mps = float(meta["max_speed_mps"])
        kernel._weight_lists = {key: arrays[f"w:{key}"].tolist()
                                for key in meta["weight_keys"]}
        kernel._custom_order = OrderedDict()
        kernel._forward_adj = {}
        kernel._reverse_adj = {}
        kernel._matrices = {}
        kernel._alt_tables = {}
        for key in meta["alt_keys"]:
            kernel._alt_tables[key] = (
                arrays[f"alt:{key}:table"],
                [int(i) for i in arrays[f"alt:{key}:landmarks"]],
            )
        kernel._dist = [inf] * n
        kernel._parent = [-1] * n
        kernel._parent_w = [0.0] * n
        kernel._seen = [0] * n
        kernel._done = [0] * n
        kernel._gen = 0
        kernel._lock = threading.Lock()
        kernel._memo_lock = threading.Lock()
        kernel._profile = dict.fromkeys(_PROFILE_KEYS, 0)
        return kernel

    def __repr__(self) -> str:
        return (f"CSRGraph(vertices={self.num_vertices}, "
                f"edges={self.num_edges}, network={self.network_name!r})")


# ----------------------------------------------------------------------
# Backend seam
# ----------------------------------------------------------------------
_VALID_BACKENDS = ("auto", "csr", "dict")


def _backend_from_env() -> str:
    # Kept as given: an unknown name fails in resolve_backend on first
    # use (not here, where it would be an import-time traceback).
    return os.environ.get("REPRO_ROUTING_BACKEND", "auto").strip().lower()


_routing_backend = _backend_from_env()


def set_routing_backend(name: str) -> None:
    """Select the process-wide routing backend.

    ``"csr"`` (and ``"auto"``, the default) route hot consumers through
    the CSR kernel; ``"dict"`` forces the reference dict-based
    implementation everywhere.
    """
    global _routing_backend
    if name not in _VALID_BACKENDS:
        raise ConfigError(
            f"unknown routing backend {name!r}; expected one of "
            f"{', '.join(_VALID_BACKENDS)}"
        )
    _routing_backend = name


def get_routing_backend() -> str:
    """The currently selected routing backend name."""
    return _routing_backend


@contextmanager
def use_routing_backend(name: str):
    """Temporarily select a routing backend (tests, benchmarks)."""
    global _routing_backend
    previous = _routing_backend
    set_routing_backend(name)
    try:
        yield
    finally:
        _routing_backend = previous


def resolve_backend(override: str | None = None) -> str:
    """Resolve an optional per-call override against the global setting
    to a concrete backend: ``"csr"`` or ``"dict"``."""
    name = override if override is not None else _routing_backend
    if name not in _VALID_BACKENDS:
        raise ConfigError(
            f"unknown routing backend {name!r}; expected one of "
            f"{', '.join(_VALID_BACKENDS)}"
        )
    return "dict" if name == "dict" else "csr"


_csr_cache: "weakref.WeakKeyDictionary[RoadNetwork, CSRGraph]" = \
    weakref.WeakKeyDictionary()
_csr_cache_lock = threading.Lock()


def csr_for(network: RoadNetwork) -> CSRGraph:
    """The CSR kernel for ``network``, built on first use and cached.

    Building reads the network's fingerprint, which seals it, so the
    cached kernel stays valid for the network's lifetime.
    """
    graph = _csr_cache.get(network)
    if graph is not None:
        return graph
    with _csr_cache_lock:
        graph = _csr_cache.get(network)
        if graph is None:
            graph = CSRGraph(network)
            _csr_cache[network] = graph
        return graph


def install_csr(network: RoadNetwork, kernel: CSRGraph) -> CSRGraph:
    """Install a pre-built kernel as ``network``'s cached CSR graph.

    The attach side of shared-memory routing: a worker process rebuilds
    the kernel with :meth:`CSRGraph.from_shared` and installs it here,
    so every existing consumer (`yen_path_generator`, the diversified
    generator, serving) transparently routes on the shared arrays via
    :func:`csr_for`.  The fingerprint must match the network's —
    routing on a kernel of another graph would silently corrupt results.
    """
    if kernel.fingerprint != network.fingerprint:
        raise GraphError(
            f"kernel fingerprint {kernel.fingerprint!r} does not match "
            f"network fingerprint {network.fingerprint!r}; refusing to "
            "install a CSR kernel of another network"
        )
    with _csr_cache_lock:
        _csr_cache[network] = kernel
    return kernel


def csr_if_built(network: RoadNetwork) -> CSRGraph | None:
    """The cached CSR kernel for ``network`` — without building one.

    Telemetry readers (``kernel.routing.*`` callbacks) must observe the
    kernel routing actually used, not force an expensive CSR build on a
    network nothing has routed on yet; ``None`` means "no kernel, no
    counters".
    """
    return _csr_cache.get(network)
