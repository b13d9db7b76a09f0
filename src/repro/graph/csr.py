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
* Yen's k-shortest-paths with ALT-accelerated spur searches.

Distance / parent / visited buffers are preallocated once and reused
across calls via generation stamps, so repeated queries allocate almost
nothing.  Landmark lower bounds use farthest-point landmark selection
and triangle-inequality bounds, with the per-landmark tables stored as
dense arrays and the per-query heuristic vectorised over all vertices.

**Backend seam.**  Hot consumers (``yen_path_generator``, the
diversified generator, ``generate_candidates``, serving) dispatch
through :func:`resolve_backend` / :func:`csr_for` and convert kernel
results back to :class:`~repro.graph.path.Path` objects at the
boundary, so downstream code never sees CSR internals.  The kernel is
cached per network and rebuilt automatically when the network's
:attr:`~repro.graph.network.RoadNetwork.fingerprint` changes.  Set the
environment variable ``REPRO_ROUTING_BACKEND=dict`` (or call
:func:`set_routing_backend`) to force the reference implementation.
"""

from __future__ import annotations

import os
import threading
import weakref
from bisect import bisect_left
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
from repro.graph.ch import ContractionHierarchy, WITNESS_SETTLE_LIMIT
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

#: Below this vertex count Yen skips building landmarks: the plain
#: array Dijkstra already answers tiny-graph queries in microseconds.
ALT_MIN_VERTICES = 128

#: Custom cost functions get their per-edge weight arrays memoised in a
#: bounded FIFO so e.g. per-driver cost closures do not grow unbounded.
_CUSTOM_WEIGHT_CAP = 16

#: Elements (float64) per multi-source distance slab: the default
#: ``chunk_size`` of :meth:`CSRGraph.multi_source` is derived from this
#: so a batched sweep never allocates more than ~32 MB per scipy call,
#: no matter how many sources the caller passes.
MULTI_SOURCE_SLAB_ELEMENTS = 4_000_000


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
        #: Fingerprint of the network at build time; :func:`csr_for`
        #: compares it against the live network to detect staleness.
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
        self._alt_tables: dict[object, tuple[np.ndarray, np.ndarray, list[int]]] = {}
        self._ch_tables: dict[object, ContractionHierarchy] = {}

        # Scratch buffers, reused across searches via generation stamps:
        # an entry is valid for the current search only when its stamp
        # equals the current generation, so no O(n) reset per query.
        self._dist = [inf] * n
        self._parent = [-1] * n
        self._seen = [0] * n
        self._done = [0] * n
        self._gen = 0
        self._lock = threading.Lock()
        # Cumulative search-effort counters, read by profile_counters().
        # Updated in bulk at the end of each search (which already holds
        # self._lock), so the hot loops only touch local ints.
        self._profile: dict[str, int] = {
            "sssp_runs": 0, "p2p_runs": 0, "astar_runs": 0,
            "yen_runs": 0, "yen_spur_searches": 0,
            "heap_pops": 0, "settled": 0, "alt_pruned": 0,
        }

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
            if weights and min(weights) < 0:
                raise ValueError(
                    f"negative edge cost under {cost!r}; routing requires "
                    "non-negative costs"
                )
            self._remember_custom(key)
            self._weight_lists[key] = weights
        return weights

    def _remember_custom(self, key: object) -> None:
        self._custom_order[key] = None
        self._custom_order.move_to_end(key)
        while len(self._custom_order) > _CUSTOM_WEIGHT_CAP:
            stale, _ = self._custom_order.popitem(last=False)
            self._weight_lists.pop(stale, None)
            self._forward_adj.pop(stale, None)
            self._reverse_adj.pop(stale, None)
            self._alt_tables.pop(stale, None)
            # A hierarchy is derived from the evicted weight array; a
            # later re-registration of the same cost object must rebuild
            # it rather than route on weights that were dropped.
            self._ch_tables.pop(stale, None)
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

    def _edge_index(self, u: int, v: int) -> int:
        """CSR position of edge ``(u, v)`` (both CSR indices).

        Out-edges are sorted by target at build time, so a binary search
        over the vertex's slice recovers the position without keeping an
        m-entry lookup dict alive per kernel.
        """
        j = bisect_left(self._indices_list, v, self._indptr_list[u],
                        self._indptr_list[u + 1])
        return j

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
                               chunk_size: int | None = None):
        """Yield ``(start, rows)`` distance slabs for CSR-index sources.

        ``rows`` is a ``(<= chunk_size, n)`` float64 block covering
        ``sources[start:start + rows.shape[0]]``; only one slab is live
        at a time, which is what bounds multi-source memory.
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
                                                  directed=True, indices=chunk))
            else:
                rows = np.vstack([self._sssp_array(source, adj)
                                  for source in chunk])
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
        h: list[float] | None = None,
        banned_vertices: Iterable[int] = (),
        banned_next: Iterable[int] = (),
    ) -> tuple[list[int], float] | None:
        """Point-to-point search with optional heuristic and bans.

        Returns ``(vertex_index_path, cost)`` or ``None`` when the
        target is unreachable.  With an admissible consistent ``h`` this
        is A*; with ``h=None`` it is Dijkstra with early exit.

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
            dist, seen, done, parent = (self._dist, self._seen, self._done,
                                        self._parent)
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
                        push(heap, (w if h is None else w + h[v], v))
            while heap:
                _, u = pop(heap)
                pops += 1
                if done[u] == gen:
                    continue
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
                        push(heap, (nd if h is None else nd + h[v], v))
            profile = self._profile
            profile["astar_runs" if h is not None else "p2p_runs"] += 1
            profile["heap_pops"] += pops
            profile["settled"] += settled
            if h is not None:
                # Entries still queued when the target settled: frontier
                # the goal-directed heuristic never had to expand.
                profile["alt_pruned"] += len(heap)
            if done[target] != gen:
                return None
            path = [target]
            node = target
            while node != source:
                node = parent[node]
                path.append(node)
            path.reverse()
            return path, dist[target]

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
            return [self.ids[i] for i in cached[2]]
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

        #: to_l[v, j] = d(v -> L_j); from_l[v, j] = d(L_j -> v).  The
        #: trailing OrderedDict memoises per-target heuristic arrays.
        to_l = np.ascontiguousarray(to_rows.T)
        from_l = np.stack(from_rows, axis=1)
        self._alt_tables[key] = (to_l, from_l, landmarks, OrderedDict())
        return [self.ids[i] for i in landmarks]

    #: Per-target heuristic arrays kept per cost key; hotspot-skewed
    #: serving traffic re-queries a small pool of destinations.
    _H_CACHE_CAP = 64

    def _alt_heuristic(self, key: object, target: int) -> list[float] | None:
        """Vectorised ALT lower bounds towards ``target`` (CSR index),
        or ``None`` when no tables exist for this cost."""
        cached = self._alt_tables.get(key)
        if cached is None:
            return None
        to_l, from_l, _, h_cache = cached
        h_list = h_cache.get(target)
        if h_list is not None:
            h_cache.move_to_end(target)
            return h_list
        with np.errstate(invalid="ignore"):
            a = to_l - to_l[target]
            b = from_l[target] - from_l
        # Non-finite bounds (a vertex or the target missing a landmark
        # distance) are dropped to 0, which is always admissible.
        a[~np.isfinite(a)] = 0.0
        b[~np.isfinite(b)] = 0.0
        h = np.maximum(np.maximum(a, b).max(axis=1), 0.0)
        h_list = h.tolist()
        h_cache[target] = h_list
        while len(h_cache) > self._H_CACHE_CAP:
            h_cache.popitem(last=False)
        return h_list

    def _heuristic_for(
        self,
        cost: CostFunction | None,
        target: int,
        use_alt: bool | None,
    ) -> list[float] | None:
        """Resolve the spur-search heuristic for Yen / point-to-point.

        ``use_alt=None`` (auto) builds landmarks once the network is big
        enough to repay the preprocessing; ``True`` forces a build;
        ``False`` disables the heuristic entirely.
        """
        if use_alt is False:
            return None
        key = self._weight_key(cost)
        if key not in self._alt_tables:
            if use_alt is None and self.num_vertices < ALT_MIN_VERTICES:
                return None
            self.ensure_alt(cost)
        return self._alt_heuristic(key, target)

    # ------------------------------------------------------------------
    # Contraction hierarchies
    # ------------------------------------------------------------------
    def ensure_ch(self, cost: CostFunction | None = None,
                  witness_limit: int = WITNESS_SETTLE_LIMIT,
                  ) -> ContractionHierarchy:
        """Build (or reuse) the contraction hierarchy for ``cost``.

        Memoised per weight key, mirroring :meth:`ensure_alt`; the
        hierarchy lives on this kernel, so a network mutation (which
        makes :func:`csr_for` build a fresh kernel for the new
        fingerprint) transparently invalidates it, and evicting a
        custom weight key drops its hierarchy with it.
        """
        key = self._weight_key(cost)
        hierarchy = self._ch_tables.get(key)
        if hierarchy is None:
            weights = self.edge_weights(cost)
            hierarchy = ContractionHierarchy.build(
                self._indptr_list, self._indices_list, weights,
                self.num_vertices, witness_limit=witness_limit)
            self._ch_tables[key] = hierarchy
        return hierarchy

    def ch_if_built(self, cost: CostFunction | None = None,
                    ) -> ContractionHierarchy | None:
        """The hierarchy for ``cost`` if one was built, else ``None``."""
        return self._ch_tables.get(self._weight_key(cost))

    def ch_shortest_path_ids(
        self,
        source_id: int,
        target_id: int,
        cost: CostFunction | None = None,
    ) -> tuple[list[int], float]:
        """Least-cost path via the contraction hierarchy.

        Same contract as :meth:`shortest_path_ids` — and the same
        answer: the hierarchy is exact, the unpacked path is the
        original-edge path, and the returned cost re-sums the original
        edge weights in path order so it is bitwise identical to what
        the Dijkstra reference accumulates.
        """
        if source_id == target_id:
            raise NoPathError(source_id, target_id)
        hierarchy = self.ensure_ch(cost)
        source = self.index_of(source_id)
        target = self.index_of(target_id)
        with self._lock:
            result = hierarchy.query(source, target)
        if result is None:
            raise NoPathError(source_id, target_id)
        path, _ = result
        weights = self.edge_weights(cost)
        edge_index = self._edge_index
        total = 0.0
        for u, v in zip(path, path[1:]):
            total += weights[edge_index(u, v)]
        ids = self.ids
        return [ids[i] for i in path], total

    def ch_shortest_path_cost(self, source_id: int, target_id: int,
                              cost: CostFunction | None = None) -> float:
        """The hierarchy-routed least cost (0.0 for equal ids)."""
        if source_id == target_id:
            return 0.0
        return self.ch_shortest_path_ids(source_id, target_id, cost)[1]

    def ch_p2p(self, cost: CostFunction | None = None):
        """A point-to-point callable over CSR indices riding the
        hierarchy: ``(source, target) -> (vertex_indices, cost) | None``.

        The cost is re-summed from the original edge weights, so the
        callable is a drop-in replacement for the unbanned
        :meth:`_p2p` — :meth:`yen_ids` uses it for the initial search
        (spur searches carry bans, which a hierarchy cannot honour, and
        stay on ALT A*).
        """
        hierarchy = self.ensure_ch(cost)
        weights = self.edge_weights(cost)
        edge_index = self._edge_index
        lock = self._lock

        def p2p(source: int, target: int
                ) -> tuple[list[int], float] | None:
            with lock:
                result = hierarchy.query(source, target)
            if result is None:
                return None
            path, _ = result
            total = 0.0
            for u, v in zip(path, path[1:]):
                total += weights[edge_index(u, v)]
            return path, total

        return p2p

    def ch_profile_counters(self) -> dict[str, float]:
        """Cumulative hierarchy counters, summed over built hierarchies.

        ``hierarchies``/``shortcuts``/``build_ms`` describe the
        preprocessing investment; ``queries``/``heap_pops``/``settled``/
        ``unpacked_arcs`` the query-time effort.  Serving publishes
        these under ``kernel.ch.*``.
        """
        totals: dict[str, float] = {
            "hierarchies": 0, "shortcuts": 0, "build_ms": 0.0,
            "queries": 0, "heap_pops": 0, "settled": 0, "unpacked_arcs": 0,
        }
        with self._lock:
            for hierarchy in self._ch_tables.values():
                totals["hierarchies"] += 1
                totals["shortcuts"] += hierarchy.num_shortcuts
                totals["build_ms"] += hierarchy.build_ms
                for name, value in hierarchy.profile.items():
                    totals[name] += value
        return totals

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
                          ) -> Iterator[tuple[int, np.ndarray]]:
        """Stream multi-source distance slabs as ``(start, rows)`` pairs.

        ``rows[i]`` holds the distances for ``source_ids[start + i]``;
        at most ``chunk_size`` rows (default :meth:`default_chunk_size`)
        are live per step.  This is the memory-bounded primitive behind
        :meth:`multi_source` and the ``repro.analytics`` batch products,
        which reduce each slab (isochrone membership, OD columns) and
        drop it before the next sweep.
        """
        sources = [self.index_of(vid) for vid in source_ids]
        yield from self._iter_multi_source_idx(sources, cost, reverse=reverse,
                                               chunk_size=chunk_size)

    def sssp_parents(self, source_id: int, cost: CostFunction | None = None,
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Full SSSP tree: ``(dist, parent)`` arrays by CSR index.

        ``parent[v]`` is the CSR index of ``v``'s predecessor on the
        least-cost path from ``source_id`` (-1 for the source itself and
        for unreachable vertices, whose ``dist`` is ``inf``).  The heap
        orders ties by CSR index — which equals ascending-vertex-id
        order, the same tie-break as the dict-backend reference
        :func:`repro.graph.shortest_path.dijkstra` — so batched path
        reconstructions (route frequencies) match the per-query
        reference tree exactly, not just in cost.
        """
        source = self.index_of(source_id)
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
        cost (e.g. after a Yen query), plain early-exit Dijkstra
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
        p2p=None,
    ) -> Iterator[tuple[tuple[int, ...], float]]:
        """Yield ``(vertex_ids, cost)`` for loopless paths in
        non-decreasing cost order (Yen, 1971).

        The sequence is the one plain Yen yields over this kernel's
        searches, order among equal costs included, and agrees with the
        reference generator in ``ksp.py`` wherever costs are distinct
        (the two lanes may resolve a tie differently).  The enumeration
        itself does not mirror the reference: :meth:`yen_indices` does
        each search once.

        ``p2p`` optionally substitutes the *initial* (unbanned) search
        with an exact point-to-point callable over CSR indices — e.g.
        :meth:`ch_p2p` — returning ``(vertex_indices, cost)`` or
        ``None``.  Spur searches always run here: they ban vertices and
        edges, which precomputed hierarchies cannot honour.
        """
        ids = self.ids
        for verts, total in self.yen_indices(source_id, target_id, cost,
                                             max_paths, use_alt, p2p):
            yield tuple(ids[i] for i in verts), total

    def yen_indices(
        self,
        source_id: int,
        target_id: int,
        cost: CostFunction | None = None,
        max_paths: int | None = None,
        use_alt: bool | None = None,
        p2p=None,
    ) -> Iterator[tuple[list[int], float]]:
        """:meth:`yen_ids` for consumers that stay on the kernel: same
        arguments, but each path is a list of CSR indices (not to be
        mutated).

        This is Yen's enumeration with the repeated work taken out; the
        yielded sequence is the plain algorithm's, ties included.

        * Every candidate carries its *deviation index* — the spur index
          it was found at — and an accepted path is spurred only from
          that index on (Lawler, 1972).  An earlier prefix is shared
          with the path it deviated from and already bans this path's
          next vertex, so its root and ban set are what they were when
          that prefix was last searched: the search would return a path
          already in ``seen_paths`` and never reach the tie-breaking
          counter.
        * The ban set of a root — the next vertices of all accepted
          paths that start with it — is the key set of that root's node
          in a prefix trie of nested dicts, which each accepted path
          extends from its deviation index, instead of being rebuilt by
          scanning the accepted paths.
        * Every banned edge leaves the spur vertex, so the bans go to
          :meth:`_p2p` as ``banned_next`` and cost the spur search
          nothing past its first expansion.

        Spur searches are ALT-guided A* toward the (fixed) target on
        networks of at least :data:`ALT_MIN_VERTICES` vertices — the
        bans only remove edges, so the landmark bounds stay admissible.
        """
        if max_paths is not None and max_paths < 1:
            raise ValueError(f"max_paths must be positive, got {max_paths}")
        if source_id == target_id:
            raise NoPathError(source_id, target_id)
        s = self.index_of(source_id)
        t = self.index_of(target_id)
        adj = self._forward(cost)
        weights = self.edge_weights(cost)
        h = self._heuristic_for(cost, t, use_alt)

        with self._lock:
            self._profile["yen_runs"] += 1
        first = p2p(s, t) if p2p is not None else self._p2p(s, t, adj, h)
        if first is None:
            raise NoPathError(source_id, target_id)
        edge_index = self._edge_index

        verts, total = first
        yield verts, total

        deviation = 0
        seen_paths: set[tuple[int, ...]] = {tuple(verts)}
        counter = count()
        candidates: list[tuple[float, int, list[int], int]] = []
        # Prefix trie over the accepted paths: a node maps each vertex
        # that follows its prefix in some accepted path to the child
        # node, so its keys are the prefix's ban set.  The root is [s].
        trie: dict[int, dict] = {}
        produced = 1

        while max_paths is None or produced < max_paths:
            node = trie
            root_cost = 0.0
            for i in range(deviation):
                root_cost += weights[edge_index(verts[i], verts[i + 1])]
                node = node[verts[i + 1]]
            spurs = 0
            try:
                for i in range(deviation, len(verts) - 1):
                    following = verts[i + 1]
                    after = node.setdefault(following, {})
                    spurs += 1
                    result = self._p2p(verts[i], t, adj, h, verts[:i], node)
                    if result is not None:
                        spur_verts, spur_cost = result
                        found = verts[:i] + spur_verts
                        key = tuple(found)
                        if key not in seen_paths:
                            seen_paths.add(key)
                            heappush(candidates, (root_cost + spur_cost,
                                                  next(counter), found, i))
                    root_cost += weights[edge_index(verts[i], following)]
                    node = after
            finally:
                with self._lock:
                    self._profile["yen_spur_searches"] += spurs

            if not candidates:
                return
            total, _, verts, deviation = heappop(candidates)
            produced += 1
            yield verts, total

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    def profile_counters(self) -> dict[str, int]:
        """Cumulative search-effort counters since this kernel was built.

        Per-search-kind run counts plus the three effort numbers that
        predict routing cost: ``heap_pops`` (priority-queue work),
        ``settled`` (vertices finalised), and ``alt_pruned`` (frontier
        entries an ALT/A* early exit never had to expand).  Serving
        publishes these under ``kernel.routing.*``.
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
        ch_keys = []
        ch_build_ms: dict[str, float] = {}
        with self._lock:
            for key in ("length", "travel_time"):
                cached = self._alt_tables.get(key)
                if cached is None:
                    continue
                to_l, from_l, landmarks = cached[0], cached[1], cached[2]
                arrays[f"alt:{key}:to"] = np.asarray(to_l, dtype=np.float64)
                arrays[f"alt:{key}:from"] = np.asarray(from_l,
                                                       dtype=np.float64)
                arrays[f"alt:{key}:landmarks"] = np.asarray(landmarks,
                                                            dtype=np.int64)
                alt_keys.append(key)
            # Built hierarchies ship with the kernel for the same parity
            # reason as the ALT tables: a replica must route on exactly
            # the owner's shortcut set, and rebuilding one per worker
            # would repeat the most expensive part of preprocessing.
            for key in ("length", "travel_time"):
                hierarchy = self._ch_tables.get(key)
                if hierarchy is None:
                    continue
                for name, array in hierarchy.shared_arrays().items():
                    arrays[f"ch:{key}:{name}"] = array
                ch_keys.append(key)
                ch_build_ms[key] = hierarchy.build_ms
        meta: dict[str, object] = {
            "network_name": self.network_name,
            "fingerprint": list(self.fingerprint),
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "max_speed_mps": self._max_speed_mps,
            "weight_keys": weight_keys,
            "alt_keys": alt_keys,
            "ch_keys": ch_keys,
            "ch_build_ms": ch_build_ms,
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
                arrays[f"alt:{key}:to"],
                arrays[f"alt:{key}:from"],
                [int(i) for i in arrays[f"alt:{key}:landmarks"]],
                OrderedDict(),
            )
        kernel._ch_tables = {}
        ch_build_ms = meta.get("ch_build_ms", {})
        for key in meta.get("ch_keys", ()):
            kernel._ch_tables[key] = ContractionHierarchy.from_shared_arrays(
                {name: arrays[f"ch:{key}:{name}"]
                 for name in ("rank", "fwd_indptr", "fwd_indices",
                              "fwd_weights", "bwd_indptr", "bwd_indices",
                              "bwd_weights", "shortcuts")},
                build_ms=float(ch_build_ms.get(key, 0.0)),
            )
        kernel._dist = [inf] * n
        kernel._parent = [-1] * n
        kernel._seen = [0] * n
        kernel._done = [0] * n
        kernel._gen = 0
        kernel._lock = threading.Lock()
        kernel._profile = {
            "sssp_runs": 0, "p2p_runs": 0, "astar_runs": 0,
            "yen_runs": 0, "yen_spur_searches": 0,
            "heap_pops": 0, "settled": 0, "alt_pruned": 0,
        }
        return kernel

    def __repr__(self) -> str:
        return (f"CSRGraph(vertices={self.num_vertices}, "
                f"edges={self.num_edges}, network={self.network_name!r})")


# ----------------------------------------------------------------------
# Backend seam
# ----------------------------------------------------------------------
_VALID_BACKENDS = ("auto", "csr", "dict", "ch")


def _backend_from_env() -> str:
    name = os.environ.get("REPRO_ROUTING_BACKEND", "auto").strip().lower()
    return name if name in _VALID_BACKENDS else "auto"


_routing_backend = _backend_from_env()


def set_routing_backend(name: str) -> None:
    """Select the process-wide routing backend.

    ``"csr"`` (and ``"auto"``, the default) route hot consumers through
    the CSR kernel; ``"ch"`` additionally rides the contraction
    hierarchy for unbanned point-to-point queries; ``"dict"`` forces
    the reference dict-based implementation everywhere.
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
    previous = get_routing_backend()
    set_routing_backend(name)
    try:
        yield
    finally:
        set_routing_backend(previous)


def resolve_backend(override: str | None = None) -> str:
    """Resolve an optional per-call override against the global setting
    to a concrete backend: ``"csr"``, ``"ch"``, or ``"dict"``."""
    name = override if override is not None else _routing_backend
    if name not in _VALID_BACKENDS:
        raise ConfigError(
            f"unknown routing backend {name!r}; expected one of "
            f"{', '.join(_VALID_BACKENDS)}"
        )
    if name in ("dict", "ch"):
        return name
    return "csr"


_csr_cache: "weakref.WeakKeyDictionary[RoadNetwork, CSRGraph]" = \
    weakref.WeakKeyDictionary()
_csr_cache_lock = threading.Lock()


def csr_for(network: RoadNetwork) -> CSRGraph:
    """The cached CSR kernel for ``network``, rebuilt when stale.

    Staleness is detected through the network's content fingerprint, so
    mutating the network (adding/removing vertices or edges) transparently
    triggers a rebuild on the next routing call.
    """
    graph = _csr_cache.get(network)
    if graph is not None and graph.fingerprint == network.fingerprint:
        return graph
    with _csr_cache_lock:
        graph = _csr_cache.get(network)
        if graph is None or graph.fingerprint != network.fingerprint:
            graph = CSRGraph(network)
            _csr_cache[network] = graph
        return graph


def install_csr(network: RoadNetwork, kernel: CSRGraph) -> CSRGraph:
    """Install a pre-built kernel as ``network``'s cached CSR graph.

    The attach side of shared-memory routing: a worker process rebuilds
    the kernel with :meth:`CSRGraph.from_shared` and installs it here,
    so every existing consumer (`yen_path_generator`, the diversified
    generator, serving) transparently routes on the shared arrays via
    :func:`csr_for`.  The fingerprint must match the live network —
    installing stale hot-state would silently corrupt results.
    """
    if kernel.fingerprint != network.fingerprint:
        raise GraphError(
            f"kernel fingerprint {kernel.fingerprint!r} does not match "
            f"network fingerprint {network.fingerprint!r}; refusing to "
            "install a stale CSR kernel"
        )
    with _csr_cache_lock:
        _csr_cache[network] = kernel
    return kernel


def csr_if_built(network: RoadNetwork) -> CSRGraph | None:
    """The cached CSR kernel for ``network`` — without building one.

    Telemetry readers (``kernel.routing.*`` callbacks) must observe the
    kernel routing actually used, not force an expensive CSR build on a
    network nothing has routed on yet; ``None`` means "no kernel, no
    counters".  A stale kernel (the network mutated since the build) is
    still returned: its counters describe the searches that really ran.
    """
    return _csr_cache.get(network)
