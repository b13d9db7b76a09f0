"""Contraction-hierarchy preprocessing and queries over the CSR arrays.

ALT cuts the Yen spur searches roughly threefold, but every
point-to-point query still pays a graph-proportional Dijkstra.  A
*contraction hierarchy* (Geisberger et al., 2008) spends that cost once
per ``(graph fingerprint, weight key)`` instead: vertices are contracted
in importance order, shortcut arcs preserve all shortest-path distances
among the not-yet-contracted remainder, and a query then runs two tiny
Dijkstras that only ever relax arcs *upward* in the contraction order.
On city-scale graphs the upward search spaces are near-constant, which
is what makes CH the third routing lane behind the backend seam
(``REPRO_ROUTING_BACKEND=ch``).

The implementation follows the classic recipe, sized for the pure-Python
kernel:

* **Ordering** — edge-difference plus deleted-neighbours, maintained
  lazily: pop the cheapest vertex, recompute its priority, and contract
  only if it still beats the runner-up.
* **Shortcuts** — a bounded *witness search* (Dijkstra from each
  in-neighbour, capped by :data:`WITNESS_SETTLE_LIMIT` settled vertices
  and the shortcut cost) decides whether ``u -> v -> w`` needs a
  shortcut.  An exhausted witness search conservatively inserts the
  shortcut: extra arcs cost memory, never correctness.
* **Query** — bidirectional Dijkstra over the upward arcs of the
  forward graph and the upward arcs of the reverse graph; the best
  meeting vertex gives the distance, and shortcut unpacking (each
  shortcut remembers its middle vertex) restores the original-edge
  path, so :class:`~repro.graph.path.Path` objects built from it are
  indistinguishable from the Dijkstra reference's.

Hierarchies are value objects: :class:`CSRGraph` owns them (keyed by
weight key, invalidated with the kernel on fingerprint change or custom
-cost eviction) and exports built ones through its shared-memory
payload so spawn workers attach instead of rebuilding.
"""

from __future__ import annotations

import time
from heapq import heapify, heappop, heappush
from math import inf

import numpy as np

__all__ = ["ContractionHierarchy", "WITNESS_SETTLE_LIMIT"]

#: Settled-vertex cap per witness search during contraction.  Small caps
#: trade a few redundant shortcuts for much faster preprocessing; the
#: hierarchy stays exact either way.
WITNESS_SETTLE_LIMIT = 64


class ContractionHierarchy:
    """An exact shortcut hierarchy for one ``(CSR graph, weight)`` pair.

    Operates purely in CSR *index* space — the owning
    :class:`~repro.graph.csr.CSRGraph` translates vertex ids at its
    boundary.  Queries are thread-safe under the owner's kernel lock
    (scratch buffers are per-hierarchy and reused across calls via
    generation stamps, mirroring the kernel's own search buffers).
    """

    def __init__(self, num_vertices: int, rank: list[int],
                 fwd: list[list[tuple[int, float]]],
                 bwd: list[list[tuple[int, float]]],
                 middle: dict[tuple[int, int], int],
                 num_shortcuts: int, build_ms: float) -> None:
        self.num_vertices = num_vertices
        #: Contraction order; higher rank = more important vertex.
        self.rank = rank
        #: Upward adjacency of the forward graph: ``fwd[u]`` holds
        #: ``(v, w)`` arcs with ``rank[v] > rank[u]``.
        self._fwd = fwd
        #: Upward adjacency of the reverse graph: ``bwd[x]`` holds
        #: ``(w, weight)`` for arcs ``w -> x`` with ``rank[w] > rank[x]``.
        self._bwd = bwd
        #: Shortcut arc ``(u, v)`` -> contracted middle vertex; original
        #: arcs are absent, which is what terminates unpacking.
        self._middle = middle
        #: Memoised expansions: shortcut ``(u, v)`` -> the original
        #: vertices strictly after ``u`` up to and including ``v``.
        #: High-level shortcuts recur across most queries, so unpacking
        #: amortises to an ``extend`` per hierarchy arc.
        self._expanded: dict[tuple[int, int], list[int]] = {}
        self.num_shortcuts = num_shortcuts
        self.build_ms = build_ms
        n = num_vertices
        # Query scratch, generation-stamped like CSRGraph's buffers.
        self._fwd_dist = [inf] * n
        self._bwd_dist = [inf] * n
        self._fwd_parent = [-1] * n
        self._bwd_parent = [-1] * n
        self._fwd_seen = [0] * n
        self._bwd_seen = [0] * n
        self._fwd_done = [0] * n
        self._bwd_done = [0] * n
        self._gen = 0
        self.profile = {"queries": 0, "heap_pops": 0, "settled": 0,
                        "unpacked_arcs": 0}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, indptr: list[int], indices: list[int],
              weights: list[float], num_vertices: int,
              witness_limit: int = WITNESS_SETTLE_LIMIT,
              ) -> "ContractionHierarchy":
        """Contract every vertex of the graph given as flat CSR lists.

        Parallel arcs are collapsed to their minimum weight up front
        (the road networks here have none, but shortcut insertion can
        create them transiently); correctness only ever needs the
        cheapest arc per ``(u, v)``.
        """
        started = time.perf_counter()
        n = num_vertices
        # Mutable remainder graph as dict adjacency: contraction removes
        # vertices and inserts shortcuts, which CSR arrays cannot absorb.
        fwd: list[dict[int, float]] = [{} for _ in range(n)]
        bwd: list[dict[int, float]] = [{} for _ in range(n)]
        for u in range(n):
            for j in range(indptr[u], indptr[u + 1]):
                v = indices[j]
                w = weights[j]
                if u == v:
                    continue  # self-loops never lie on a shortest path
                if v not in fwd[u] or w < fwd[u][v]:
                    fwd[u][v] = w
                    bwd[v][u] = w
        middle: dict[tuple[int, int], int] = {}
        contracted = [False] * n
        deleted_neighbours = [0] * n
        rank = [0] * n

        def simulate(v: int, limit: int) -> list[tuple[int, int, float]]:
            """Shortcuts contracting ``v`` would insert (bounded witness
            searches over the current remainder graph, excluding ``v``)."""
            shortcuts: list[tuple[int, int, float]] = []
            outs = [(w, wt) for w, wt in fwd[v].items() if not contracted[w]]
            if not outs:
                return shortcuts
            max_out = max(wt for _, wt in outs)
            for u, w_in in bwd[v].items():
                if contracted[u]:
                    continue
                # One witness Dijkstra from u covers every (u, v, w) pair:
                # stop once all out-neighbours are settled, the cost
                # bound is exceeded, or the settle budget runs out.
                bound = w_in + max_out
                dist = {u: 0.0}
                heap = [(0.0, u)]
                settled: set[int] = set()
                budget = limit
                targets = {w for w, _ in outs if w != u}
                while heap and budget > 0 and targets:
                    d, x = heappop(heap)
                    if x in settled:
                        continue
                    if d > bound:
                        break
                    settled.add(x)
                    targets.discard(x)
                    budget -= 1
                    for y, wt in fwd[x].items():
                        if y == v or contracted[y] or y in settled:
                            continue
                        nd = d + wt
                        if nd < dist.get(y, inf) and nd <= bound:
                            dist[y] = nd
                            heappush(heap, (nd, y))
                for w, w_out in outs:
                    if w == u:
                        continue
                    via = w_in + w_out
                    if dist.get(w, inf) <= via:
                        continue  # witness path is at least as good
                    shortcuts.append((u, w, via))
            return shortcuts

        def priority(v: int) -> tuple[float, list[tuple[int, int, float]]]:
            shortcuts = simulate(v, witness_limit)
            degree = (sum(1 for u in bwd[v] if not contracted[u])
                      + sum(1 for w in fwd[v] if not contracted[w]))
            return (2.0 * (len(shortcuts) - degree)
                    + deleted_neighbours[v], shortcuts)

        queue = [(priority(v)[0], v) for v in range(n)]
        heapify(queue)
        order = 0
        num_shortcuts = 0
        while queue:
            _, v = heappop(queue)
            if contracted[v]:
                continue
            # Lazy update: the neighbourhood may have changed since this
            # entry was pushed; re-evaluate and defer if it lost its spot.
            current, shortcuts = priority(v)
            if queue and current > queue[0][0]:
                heappush(queue, (current, v))
                continue
            for u, w, via in shortcuts:
                if w not in fwd[u] or via < fwd[u][w]:
                    fwd[u][w] = via
                    bwd[w][u] = via
                    middle[(u, w)] = v
                    num_shortcuts += 1
            contracted[v] = True
            rank[v] = order
            order += 1
            for u in bwd[v]:
                if not contracted[u]:
                    deleted_neighbours[u] += 1
            for w in fwd[v]:
                if not contracted[w]:
                    deleted_neighbours[w] += 1

        # Freeze the upward search graphs.  fwd/bwd now hold the full
        # arc set (originals + shortcuts); only upward arcs survive —
        # downward arcs are exactly the upward arcs of the other side.
        up_f: list[list[tuple[int, float]]] = [
            sorted((v, w) for v, w in fwd[u].items() if rank[v] > rank[u])
            for u in range(n)
        ]
        up_b: list[list[tuple[int, float]]] = [
            sorted((u, w) for u, w in bwd[x].items() if rank[u] > rank[x])
            for x in range(n)
        ]
        build_ms = (time.perf_counter() - started) * 1000.0
        return cls(n, rank, up_f, up_b, middle, num_shortcuts, build_ms)

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def query(self, source: int, target: int) -> tuple[list[int], float] | None:
        """Shortest ``source -> target`` path as CSR indices, or ``None``.

        Interleaves the two upward Dijkstras (always advancing the
        smaller frontier), terminates each direction once its heap
        minimum can no longer beat the best meeting found, and prunes
        with *stall-on-demand*: a vertex whose upward distance is
        dominated through a higher-ranked neighbour cannot lie on a
        shortest up-down path and is not expanded.  Unpacks every
        shortcut on the winning up-down path.  The returned cost is the
        hierarchy-arc sum; callers wanting bitwise parity with plain
        Dijkstra re-sum the unpacked original arcs in path order.
        """
        self._gen += 1
        gen = self._gen
        dist_f, dist_b = self._fwd_dist, self._bwd_dist
        parent_f, parent_b = self._fwd_parent, self._bwd_parent
        seen_f, seen_b = self._fwd_seen, self._bwd_seen
        done_f, done_b = self._fwd_done, self._bwd_done
        fwd, bwd = self._fwd, self._bwd
        push, pop = heappush, heappop
        pops = settled = 0

        dist_f[source] = 0.0
        seen_f[source] = gen
        parent_f[source] = -1
        dist_b[target] = 0.0
        seen_b[target] = gen
        parent_b[target] = -1
        heap_f = [(0.0, source)]
        heap_b = [(0.0, target)]
        best = inf
        meeting = -1

        while heap_f or heap_b:
            if heap_f and heap_f[0][0] >= best:
                heap_f = []
            if heap_b and heap_b[0][0] >= best:
                heap_b = []
            if heap_f and (not heap_b or heap_f[0][0] <= heap_b[0][0]):
                d, u = pop(heap_f)
                pops += 1
                if done_f[u] == gen:
                    continue
                done_f[u] = gen
                settled += 1
                # A meeting through a tentative backward distance is a
                # real path, so it may tighten `best`; the exact minimum
                # is guaranteed once both directions settle or prune.
                if seen_b[u] == gen:
                    total = d + dist_b[u]
                    if total < best:
                        best = total
                        meeting = u
                # Stall-on-demand: a shorter way into u *down* from a
                # higher-ranked, already-reached vertex proves u's
                # current label is not an upward-shortest prefix.
                stalled = False
                for w, wt in bwd[u]:
                    if seen_f[w] == gen and dist_f[w] + wt < d:
                        stalled = True
                        break
                if stalled:
                    continue
                for v, w in fwd[u]:
                    nd = d + w
                    # Upward labels only grow, so a label already at or
                    # past `best` can never improve any later meeting.
                    if nd >= best:
                        continue
                    if seen_f[v] != gen or nd < dist_f[v]:
                        dist_f[v] = nd
                        seen_f[v] = gen
                        parent_f[v] = u
                        push(heap_f, (nd, v))
            elif heap_b:
                d, u = pop(heap_b)
                pops += 1
                if done_b[u] == gen:
                    continue
                done_b[u] = gen
                settled += 1
                if seen_f[u] == gen:
                    total = dist_f[u] + d
                    if total < best:
                        best = total
                        meeting = u
                stalled = False
                for w, wt in fwd[u]:
                    if seen_b[w] == gen and dist_b[w] + wt < d:
                        stalled = True
                        break
                if stalled:
                    continue
                for v, w in bwd[u]:
                    nd = d + w
                    if nd >= best:
                        continue
                    if seen_b[v] != gen or nd < dist_b[v]:
                        dist_b[v] = nd
                        seen_b[v] = gen
                        parent_b[v] = u
                        push(heap_b, (nd, v))
        profile = self.profile
        profile["queries"] += 1
        profile["heap_pops"] += pops
        profile["settled"] += settled
        if meeting < 0:
            return None

        up_path: list[int] = [meeting]
        node = meeting
        while parent_f[node] != -1:
            node = parent_f[node]
            up_path.append(node)
        up_path.reverse()
        node = meeting
        while parent_b[node] != -1:
            node = parent_b[node]
            up_path.append(node)

        path = [up_path[0]]
        unpacked = 0
        for u, v in zip(up_path, up_path[1:]):
            unpacked += self._unpack(u, v, path)
        profile["unpacked_arcs"] += unpacked
        return path, best

    def _unpack(self, u: int, v: int, out: list[int]) -> int:
        """Expand arc ``(u, v)`` into original arcs appended to ``out``
        (which already ends with ``u``); returns arcs appended."""
        middle = self._middle
        m = middle.get((u, v))
        if m is None:
            out.append(v)
            return 1
        expanded = self._expanded
        cached = expanded.get((u, v))
        if cached is None:
            cached = []
            stack = [(u, v)]
            while stack:
                a, b = stack.pop()
                mid = middle.get((a, b))
                if mid is None:
                    cached.append(b)
                else:
                    # LIFO order: push (m, b) first so (a, m) unpacks first.
                    stack.append((mid, b))
                    stack.append((a, mid))
            expanded[(u, v)] = cached
        out.extend(cached)
        return len(cached)

    def cost(self, source: int, target: int) -> float:
        """Hierarchy distance only (``inf`` when unreachable)."""
        result = self.query(source, target)
        return result[1] if result is not None else inf

    # ------------------------------------------------------------------
    # Shared-memory payload
    # ------------------------------------------------------------------
    def shared_arrays(self) -> dict[str, np.ndarray]:
        """Flatten the hierarchy into dense arrays for a shm segment."""
        def _flatten(adj: list[list[tuple[int, float]]]):
            indptr = [0]
            indices: list[int] = []
            weights: list[float] = []
            for arcs in adj:
                for v, w in arcs:
                    indices.append(v)
                    weights.append(w)
                indptr.append(len(indices))
            return (np.asarray(indptr, dtype=np.int64),
                    np.asarray(indices, dtype=np.int64),
                    np.asarray(weights, dtype=np.float64))

        f_indptr, f_indices, f_weights = _flatten(self._fwd)
        b_indptr, b_indices, b_weights = _flatten(self._bwd)
        shortcuts = np.asarray(
            [(u, v, m) for (u, v), m in sorted(self._middle.items())],
            dtype=np.int64).reshape(-1, 3)
        return {
            "rank": np.asarray(self.rank, dtype=np.int64),
            "fwd_indptr": f_indptr, "fwd_indices": f_indices,
            "fwd_weights": f_weights,
            "bwd_indptr": b_indptr, "bwd_indices": b_indices,
            "bwd_weights": b_weights,
            "shortcuts": shortcuts,
        }

    @classmethod
    def from_shared_arrays(cls, arrays: dict[str, np.ndarray],
                           build_ms: float = 0.0) -> "ContractionHierarchy":
        """Rebuild a hierarchy from :meth:`shared_arrays` output.

        Adjacency is materialised into plain lists once per process (the
        query loop wants scalar tuples, not array indexing); the source
        arrays themselves may stay zero-copy views into a segment.
        """
        rank = [int(r) for r in arrays["rank"]]
        n = len(rank)

        def _unflatten(indptr, indices, weights):
            ptr = indptr.tolist()
            idx = indices.tolist()
            wts = weights.tolist()
            return [list(zip(idx[ptr[u]:ptr[u + 1]],
                             wts[ptr[u]:ptr[u + 1]]))
                    for u in range(n)]

        fwd = _unflatten(arrays["fwd_indptr"], arrays["fwd_indices"],
                         arrays["fwd_weights"])
        bwd = _unflatten(arrays["bwd_indptr"], arrays["bwd_indices"],
                         arrays["bwd_weights"])
        middle = {(int(u), int(v)): int(m)
                  for u, v, m in arrays["shortcuts"]}
        return cls(n, rank, fwd, bwd, middle, len(middle), build_ms)

    def __repr__(self) -> str:
        return (f"ContractionHierarchy(vertices={self.num_vertices}, "
                f"shortcuts={self.num_shortcuts}, "
                f"build_ms={self.build_ms:.1f})")
