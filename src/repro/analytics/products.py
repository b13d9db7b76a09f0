"""Kernel-level batch products and their result types.

Everything here computes directly against a :class:`CSRGraph` — no
pool, no tiles, no metrics — so the exact same code runs inline in
the caller's process and inside a worker that attached the kernel from
shared memory.  Orchestration (tiling, fan-out, accounting) lives in
:mod:`repro.analytics.tiling` and :mod:`repro.analytics.batch`.

Parity is the design constraint, not an afterthought: every product is
element-wise equal to the per-query dict-backend reference —
``od_sweep_block`` rows match :func:`repro.graph.shortest_path.dijkstra`
distances, service-area membership matches the per-vertex/per-edge
budget test on those distances, and route-frequency counts ride
:meth:`CSRGraph.sssp_parents`, whose tie-break reproduces the reference
parent tree exactly.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from repro.errors import AnalyticsError, EdgeNotFoundError
from repro.graph.csr import CSRGraph
from repro.graph.shortest_path import (
    CostFunction,
    length_cost,
    travel_time_cost,
)

__all__ = [
    "ODMatrix",
    "ServiceArea",
    "RouteFrequencies",
    "cost_name",
    "cost_from_name",
    "od_sweep_block",
    "service_area_blocks",
    "route_frequency_counts",
]


# ----------------------------------------------------------------------
# Cost naming (the only form that crosses a process boundary)
# ----------------------------------------------------------------------
def cost_name(cost: CostFunction | None) -> str | None:
    """The wire name of a cost function, or ``None`` when it has none.

    Only named costs ("length", "travel_time") can ride a tile payload
    to a pool worker: a custom closure would drag edge objects through
    pickle and the shared-memory replica could not evaluate it anyway.
    """
    if cost is None or cost is length_cost:
        return "length"
    if cost is travel_time_cost:
        return "travel_time"
    return None


def cost_from_name(name: str | None) -> CostFunction | None:
    """Resolve a wire cost name back to the callable (None = length)."""
    if name is None or name == "length":
        return None
    if name == "travel_time":
        return travel_time_cost
    raise AnalyticsError(
        f"unknown cost name {name!r}: tile payloads carry 'length' or "
        f"'travel_time' (custom cost functions cannot cross a process "
        f"boundary)")


def require_cost_name(cost: CostFunction | None) -> str:
    """``cost_name`` that raises instead of returning ``None``."""
    name = cost_name(cost)
    if name is None:
        raise AnalyticsError(
            f"cost {cost!r} has no wire name; pool fan-out supports only "
            f"'length' and 'travel_time' — run custom costs inline "
            f"(plane=None)")
    return name


# ----------------------------------------------------------------------
# Result types
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class ODMatrix:
    """Many-to-many least costs: ``costs[i, j]`` = d(origins[i] ->
    destinations[j]), ``inf`` where disconnected."""

    origins: tuple[int, ...]
    destinations: tuple[int, ...]
    costs: np.ndarray
    method: str  #: "forward_sweep" | "reverse_sweep"
    sweeps: int  #: full-graph sweeps spent

    def cost(self, origin: int, destination: int) -> float:
        return float(self.costs[self.origins.index(origin),
                                self.destinations.index(destination)])

    @property
    def num_pairs(self) -> int:
        return len(self.origins) * len(self.destinations)

    @property
    def num_disconnected(self) -> int:
        return int(np.isinf(self.costs).sum())

    def as_dict(self) -> dict[str, object]:
        """JSON-safe form (``inf`` becomes ``None``)."""
        rows = [[None if np.isinf(c) else float(c) for c in row]
                for row in self.costs]
        return {
            "origins": list(self.origins),
            "destinations": list(self.destinations),
            "costs": rows,
            "method": self.method,
            "sweeps": self.sweeps,
            "num_disconnected": self.num_disconnected,
        }


@dataclass(frozen=True, eq=False)
class ServiceArea:
    """One isochrone: everything reachable within ``budget`` of
    ``source`` (or everything that can *reach* it, when ``reverse``).

    An edge belongs to the area when the whole traversal fits the
    budget: forward ``d(source, u) + w(u, v) <= budget``, reverse
    ``w(u, v) + d(v, source) <= budget``.
    """

    source: int
    budget: float
    reverse: bool
    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def as_dict(self) -> dict[str, object]:
        return {
            "source": self.source,
            "budget": self.budget,
            "reverse": self.reverse,
            "vertices": sorted(self.vertices),
            "edges": sorted(self.edges),
        }


@dataclass(eq=False)
class RouteFrequencies:
    """Per-edge traversal load over a workload of (origin, destination)
    pairs, accumulated into one CSR-edge-indexed array.

    ``counts[j]`` is the summed weight of all workload paths crossing
    the ``j``-th CSR edge; ``unreachable_pairs`` counts pairs whose
    destination the tree never reached (they contribute nothing).
    """

    kernel: CSRGraph = field(repr=False)
    counts: np.ndarray = field(repr=False)
    num_pairs: int = 0
    unreachable_pairs: int = 0

    def frequency(self, u: int, v: int) -> float:
        """The accumulated load on edge ``(u, v)`` (vertex ids)."""
        pos = _edge_position(self.kernel, self.kernel.index_of(u),
                             self.kernel.index_of(v))
        if pos is None:
            raise EdgeNotFoundError(u, v)
        return float(self.counts[pos])

    def items(self) -> list[tuple[tuple[int, int], float]]:
        """``((u, v), load)`` for every edge with nonzero load."""
        kernel = self.kernel
        ids = kernel.ids
        indptr = kernel.indptr
        out: list[tuple[tuple[int, int], float]] = []
        for pos in np.flatnonzero(self.counts):
            u = int(np.searchsorted(indptr, pos, side="right")) - 1
            v = int(kernel.indices[pos])
            out.append(((ids[u], ids[v]), float(self.counts[pos])))
        return out

    def as_dict(self) -> dict[str, object]:
        return {
            "edges": [[u, v, load] for (u, v), load in self.items()],
            "num_pairs": self.num_pairs,
            "unreachable_pairs": self.unreachable_pairs,
        }


def _edge_position(kernel: CSRGraph, u: int, v: int) -> int | None:
    """CSR position of edge ``(u, v)`` (CSR indices), None if absent."""
    indptr = kernel.indptr
    lo, hi = int(indptr[u]), int(indptr[u + 1])
    j = bisect_left(kernel._indices_list, v, lo, hi)
    if j < hi and kernel._indices_list[j] == v:
        return j
    return None


# ----------------------------------------------------------------------
# Kernel-level compute (runs identically inline and in pool workers)
# ----------------------------------------------------------------------
def od_sweep_block(kernel: CSRGraph, sweep_ids: list[int],
                   col_ids: list[int], *, cost: CostFunction | None = None,
                   reverse: bool = False,
                   chunk_size: int | None = None) -> np.ndarray:
    """One OD block from batched sweeps: ``(len(sweep_ids),
    len(col_ids))`` costs, row-major by sweep source.

    Forward rows hold ``d(sweep[i] -> col[j])``; reverse rows hold
    ``d(col[j] -> sweep[i])``.  Each multi-source slab is gathered down
    to the requested columns and dropped before the next sweep, so the
    full ``(sweep, n)`` matrix never materialises.
    """
    col_idx = np.array([kernel.index_of(v) for v in col_ids],
                       dtype=np.int64)
    out = np.empty((len(sweep_ids), len(col_ids)), dtype=np.float64)
    for start, rows in kernel.iter_multi_source(
            sweep_ids, cost, reverse=reverse, chunk_size=chunk_size):
        out[start:start + rows.shape[0]] = rows[:, col_idx]
    return out


def check_budgets(budgets: list[float]) -> None:
    """Raise :class:`AnalyticsError` unless ``budgets`` is a non-empty
    list of numbers ``>= 0`` (NaN is refused too)."""
    if not budgets:
        raise AnalyticsError("service_area needs at least one budget")
    for budget in budgets:
        if not budget >= 0.0:
            raise AnalyticsError(f"budgets must be >= 0, got {budget!r}")


def service_area_blocks(kernel: CSRGraph, source_ids: list[int],
                        budgets: list[float], *,
                        cost: CostFunction | None = None,
                        reverse: bool = False,
                        chunk_size: int | None = None) -> list[ServiceArea]:
    """Isochrones for every (source, budget) pair, source-major.

    One batched multi-source sweep covers all sources and stops at the
    largest budget; each row is then cut at every budget with two
    vectorised comparisons (vertex: ``dist <= budget``; edge:
    full-traversal test, see :class:`ServiceArea`).  A vertex beyond
    the largest budget fails every test whether its distance reads
    finite or ``inf``, so the limit changes no membership.
    """
    check_budgets(budgets)
    n = kernel.num_vertices
    indptr = np.asarray(kernel.indptr)
    tails = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    heads = np.asarray(kernel.indices, dtype=np.int64)
    weights = kernel.weight_array(cost)
    ids = np.asarray(kernel.ids, dtype=np.int64)
    areas: list[ServiceArea] = []
    for start, rows in kernel.iter_multi_source(
            source_ids, cost, reverse=reverse, chunk_size=chunk_size,
            limit=max(budgets)):
        for i in range(rows.shape[0]):
            dist = rows[i]
            # Forward: tail settled + edge fits; reverse: edge + head's
            # way back fits.  inf propagates, so unreached ends fail
            # the comparison without a separate mask.
            reach = weights + dist[heads] if reverse else dist[tails] + weights
            for budget in budgets:
                vmask = dist <= budget
                emask = reach <= budget
                edges = zip(ids[tails[emask]].tolist(),
                            ids[heads[emask]].tolist())
                areas.append(ServiceArea(
                    source=source_ids[start + i],
                    budget=float(budget),
                    reverse=reverse,
                    vertices=frozenset(ids[vmask].tolist()),
                    edges=frozenset(edges),
                ))
    return areas


def route_frequency_counts(
    kernel: CSRGraph,
    groups: list[tuple[int, list[tuple[int, float]]]],
    *,
    cost: CostFunction | None = None,
) -> tuple[np.ndarray, int, int]:
    """Accumulate per-edge load for source-grouped (target, weight)
    lists; returns ``(edge_counts, num_pairs, unreachable)``.

    One :meth:`CSRGraph.sssp_parents` tree per distinct source replaces
    one Dijkstra per pair; each target then walks its parent chain,
    adding its weight to every edge on the least-cost path.  The tree's
    tie-break matches the dict-backend reference, so the walked paths —
    and therefore the counts — are element-wise identical to per-query
    ``shortest_path`` reconstructions.

    A pair with equal endpoints is a zero-length path: counted in
    ``num_pairs``, touches no edge, never unreachable.
    """
    edge_counts = np.zeros(len(kernel.indices), dtype=np.float64)
    num_pairs = 0
    unreachable = 0
    for source, targets in groups:
        if not targets:
            continue
        source_idx = kernel.index_of(source)
        dist, parent = kernel.sssp_parents(source, cost)
        parent = parent.tolist()
        for target, weight in targets:
            num_pairs += 1
            target_idx = kernel.index_of(target)
            if target_idx == source_idx:
                continue
            if not np.isfinite(dist[target_idx]):
                unreachable += 1
                continue
            chain = [target_idx]
            while chain[-1] != source_idx:
                chain.append(parent[chain[-1]])
            chain.reverse()
            # A shortest path is simple, so no position repeats and the
            # fancy-indexed add is one addition per edge, as in a loop.
            edge_counts[kernel._edge_positions(chain)] += weight
    return edge_counts, num_pairs, unreachable


def group_pairs(pairs: list[tuple[int, int]],
                weights: list[float] | None = None,
                ) -> list[tuple[int, list[tuple[int, float]]]]:
    """Group (origin, destination) pairs by origin, preserving first-seen
    source order — one group = one SSSP tree downstream."""
    if weights is not None and len(weights) != len(pairs):
        raise AnalyticsError(
            f"weights length {len(weights)} != pairs length {len(pairs)}")
    grouped: dict[int, list[tuple[int, float]]] = {}
    for k, (origin, destination) in enumerate(pairs):
        weight = 1.0 if weights is None else float(weights[k])
        grouped.setdefault(origin, []).append((destination, weight))
    return list(grouped.items())
