"""Product orchestration: sweep-side choice, CH lane, pool fan-out.

The functions here decide *how* a product is computed — which side to
sweep, whether the CH lane beats sweeping, how to tile across the
process pool — and then delegate the arithmetic to
:mod:`repro.analytics.products`, so a pooled run and an inline run
execute byte-identical kernel code.

Accounting goes through an optional :class:`MetricsRegistry` under
``analytics.*`` (see ``docs/observability.md``).
"""

from __future__ import annotations

from math import ceil
from time import perf_counter

import numpy as np

from repro.analytics.products import (
    ODMatrix,
    RouteFrequencies,
    group_pairs,
    od_sweep_block,
    require_cost_name,
    route_frequency_counts,
    service_area_blocks,
)
from repro.analytics.tiling import DEFAULT_TILE_SIZE, tile_sources
from repro.errors import AnalyticsError
from repro.graph.csr import csr_for, resolve_backend

__all__ = [
    "BatchAnalytics",
    "od_cost_matrix",
    "od_cost_pairs",
    "service_area",
    "route_frequencies",
    "CH_SPARSE_PAIR_BUDGET",
]

#: The CH lane wins when each full-graph sweep would answer at most
#: this many pairs: a sweep costs one Dijkstra over all n vertices,
#: a CH query orders of magnitude less, so sparse pair sets (few
#: columns per sweep source) route point-to-point instead.
CH_SPARSE_PAIR_BUDGET = 8


def _auto_tile_size(num_sources: int, plane) -> int:
    """Tiles sized for load balance: ~2 waves across the pool, capped
    at :data:`DEFAULT_TILE_SIZE` so a huge job still streams."""
    if plane is None:
        return max(1, num_sources)
    per_wave = ceil(num_sources / max(1, 2 * plane.pool.workers))
    return max(1, min(DEFAULT_TILE_SIZE, per_wave))


def _observe(metrics, product: str, *, pairs: int, elapsed_s: float,
             tiles: int = 1, pooled: bool = False) -> None:
    if metrics is None:
        return
    metrics.counter(f"analytics.{product}.requests").inc()
    metrics.counter(f"analytics.{product}.pairs").inc(pairs)
    metrics.histogram(f"analytics.{product}.ms").observe(elapsed_s * 1000.0)
    metrics.counter("analytics.tiles.total").inc(tiles)
    if pooled:
        metrics.counter("analytics.tiles.pooled").inc(tiles)


def _fan_out(plane, payloads: list[dict], metrics) -> list[dict]:
    """Submit every tile payload, then wait in order."""
    tickets = [plane.submit_analytics(payload) for payload in payloads]
    results = []
    for ticket in tickets:
        began = perf_counter()
        results.append(ticket.wait())
        if metrics is not None:
            metrics.histogram("analytics.tile_ms").observe(
                (perf_counter() - began) * 1000.0)
    return results


def _use_ch(kernel, cost, method: str, num_origins: int,
            num_destinations: int) -> bool:
    if method == "ch":
        return True
    if method != "auto":
        return False
    dense_side = max(num_origins, num_destinations)
    if dense_side > CH_SPARSE_PAIR_BUDGET:
        return False
    return (kernel.ch_if_built(cost) is not None
            or resolve_backend(None) == "ch")


def od_cost_matrix(network, origins, destinations=None, *, cost=None,
                   method: str = "auto", chunk_size: int | None = None,
                   tile_size: int | None = None, plane=None,
                   partition=None, metrics=None) -> ODMatrix:
    """Many-to-many least costs as one (or a few) batched sweeps.

    Sweeps the *smaller* side — forward multi-source over origins when
    ``len(origins) <= len(destinations)``, else reverse multi-source
    over destinations — in bounded ``chunk_size`` slabs, gathering only
    the requested columns from each slab.  ``method="auto"`` switches
    to per-pair CH queries when the pair set is sparse (both sides at
    most :data:`CH_SPARSE_PAIR_BUDGET`) and a hierarchy is available;
    ``method`` can also force ``"sweep"`` or ``"ch"``.  With ``plane``,
    the sweep side is tiled (shard-aware when ``partition`` is given)
    and tiles fan across the worker pool.  Disconnected pairs cost
    ``inf``; ``d(v, v) == 0``.
    """
    origins = list(origins)
    destinations = list(destinations) if destinations is not None \
        else list(origins)
    if not origins or not destinations:
        raise AnalyticsError("od_cost_matrix needs origins and destinations")
    if method not in ("auto", "sweep", "ch"):
        raise AnalyticsError(f"unknown od method {method!r}")
    began = perf_counter()
    kernel = csr_for(network)

    if _use_ch(kernel, cost, method, len(origins), len(destinations)):
        from repro.errors import NoPathError

        kernel.ensure_ch(cost)
        costs = np.empty((len(origins), len(destinations)), dtype=np.float64)
        for i, origin in enumerate(origins):
            for j, destination in enumerate(destinations):
                try:
                    costs[i, j] = kernel.ch_shortest_path_cost(
                        origin, destination, cost)
                except NoPathError:
                    costs[i, j] = np.inf
        _observe(metrics, "od", pairs=costs.size,
                 elapsed_s=perf_counter() - began)
        return ODMatrix(origins=tuple(origins),
                        destinations=tuple(destinations), costs=costs,
                        method="ch", sweeps=0)

    forward = len(origins) <= len(destinations)
    sweep_ids = origins if forward else destinations
    col_ids = destinations if forward else origins
    num_tiles = 1
    if plane is not None and len(sweep_ids) > 1:
        name = require_cost_name(cost)
        tiles = tile_sources(sweep_ids,
                             tile_size or _auto_tile_size(len(sweep_ids),
                                                          plane),
                             partition)
        payloads = [
            {"product": "od", "sweep": tile, "cols": col_ids,
             "reverse": not forward, "cost": name, "chunk_size": chunk_size}
            for tile in tiles
        ]
        num_tiles = len(tiles)
        results = _fan_out(plane, payloads, metrics)
        # Shard-aware tiling may permute the sweep side; scatter each
        # tile's rows back to the input positions (duplicates resolve
        # to identical rows, so clobbering is harmless).
        block = np.empty((len(sweep_ids), len(col_ids)), dtype=np.float64)
        positions: dict[int, list[int]] = {}
        for pos, vid in enumerate(sweep_ids):
            positions.setdefault(vid, []).append(pos)
        consumed: dict[int, int] = {}
        for tile, result in zip(tiles, results):
            for row, vid in zip(result["rows"], tile):
                slots = positions[vid]
                k = consumed.get(vid, 0)
                block[slots[min(k, len(slots) - 1)]] = row
                consumed[vid] = k + 1
    else:
        block = od_sweep_block(kernel, sweep_ids, col_ids, cost=cost,
                               reverse=not forward, chunk_size=chunk_size)
    costs = block if forward else np.ascontiguousarray(block.T)
    _observe(metrics, "od", pairs=costs.size,
             elapsed_s=perf_counter() - began, tiles=num_tiles,
             pooled=plane is not None and num_tiles > 1)
    return ODMatrix(origins=tuple(origins), destinations=tuple(destinations),
                    costs=costs,
                    method="forward_sweep" if forward else "reverse_sweep",
                    sweeps=len(sweep_ids))


def od_cost_pairs(network, pairs, *, cost=None, method: str = "auto",
                  chunk_size: int | None = None, metrics=None) -> np.ndarray:
    """Least costs for an explicit pair list, aligned with ``pairs``.

    Groups pairs by origin so each distinct origin costs one sweep at
    most; ``method="auto"`` routes the whole set through per-pair CH
    queries instead when the set is sparse (at most
    :data:`CH_SPARSE_PAIR_BUDGET` pairs per distinct origin) and a
    hierarchy is available.
    """
    pairs = list(pairs)
    if not pairs:
        raise AnalyticsError("od_cost_pairs needs at least one pair")
    if method not in ("auto", "sweep", "ch"):
        raise AnalyticsError(f"unknown od method {method!r}")
    began = perf_counter()
    kernel = csr_for(network)
    sources = list(dict.fromkeys(origin for origin, _ in pairs))
    sparse = len(pairs) <= CH_SPARSE_PAIR_BUDGET * len(sources)
    use_ch = method == "ch" or (
        method == "auto" and sparse
        and (kernel.ch_if_built(cost) is not None
             or resolve_backend(None) == "ch"))
    out = np.empty(len(pairs), dtype=np.float64)
    if use_ch:
        from repro.errors import NoPathError

        kernel.ensure_ch(cost)
        for k, (origin, destination) in enumerate(pairs):
            try:
                out[k] = kernel.ch_shortest_path_cost(origin, destination,
                                                      cost)
            except NoPathError:
                out[k] = np.inf
    else:
        wanted: dict[int, list[tuple[int, int]]] = {}
        for k, (origin, destination) in enumerate(pairs):
            wanted.setdefault(origin, []).append(
                (k, kernel.index_of(destination)))
        for start, rows in kernel.iter_multi_source(sources, cost,
                                                    chunk_size=chunk_size):
            for i in range(rows.shape[0]):
                for k, target_idx in wanted[sources[start + i]]:
                    out[k] = rows[i, target_idx]
    _observe(metrics, "od", pairs=len(pairs),
             elapsed_s=perf_counter() - began)
    return out


def service_area(network, sources, budgets, *, cost=None,
                 reverse: bool = False, chunk_size: int | None = None,
                 tile_size: int | None = None, plane=None, partition=None,
                 metrics=None):
    """Isochrones for every (source, budget) pair, source-major in
    input order, budget-minor in input order.

    One batched multi-source sweep (forward = where you can get *to*,
    ``reverse=True`` = where you can come *from*) serves every budget;
    membership is two vectorised comparisons per (row, budget).  With
    ``plane``, sources tile across the pool as for
    :func:`od_cost_matrix`.
    """
    from repro.analytics.products import ServiceArea

    sources = list(sources)
    budgets = [float(b) for b in budgets]
    if not sources:
        raise AnalyticsError("service_area needs at least one source")
    began = perf_counter()
    num_tiles = 1
    if plane is not None and len(sources) > 1:
        name = require_cost_name(cost)
        tiles = tile_sources(sources,
                             tile_size or _auto_tile_size(len(sources),
                                                          plane),
                             partition)
        payloads = [
            {"product": "service_area", "sources": tile, "budgets": budgets,
             "reverse": reverse, "cost": name, "chunk_size": chunk_size}
            for tile in tiles
        ]
        num_tiles = len(tiles)
        results = _fan_out(plane, payloads, metrics)
        by_source: dict[int, list[list[ServiceArea]]] = {}
        for tile, result in zip(tiles, results):
            areas = [
                ServiceArea(source=entry["source"], budget=entry["budget"],
                            reverse=entry["reverse"],
                            vertices=frozenset(entry["vertices"]),
                            edges=frozenset(
                                (u, v) for u, v in entry["edges"]))
                for entry in result["areas"]
            ]
            per_budget = len(budgets)
            for i, vid in enumerate(tile):
                by_source.setdefault(vid, []).append(
                    areas[i * per_budget:(i + 1) * per_budget])
        out: list[ServiceArea] = []
        taken: dict[int, int] = {}
        for vid in sources:
            k = taken.get(vid, 0)
            group = by_source[vid][min(k, len(by_source[vid]) - 1)]
            taken[vid] = k + 1
            out.extend(group)
    else:
        kernel = csr_for(network)
        out = service_area_blocks(kernel, sources, budgets, cost=cost,
                                  reverse=reverse, chunk_size=chunk_size)
    _observe(metrics, "service_area", pairs=len(sources) * len(budgets),
             elapsed_s=perf_counter() - began, tiles=num_tiles,
             pooled=plane is not None and num_tiles > 1)
    if metrics is not None:
        metrics.counter("analytics.service_area.areas").inc(len(out))
    return out


def route_frequencies(network, pairs, *, weights=None, cost=None,
                      tile_size: int | None = None, plane=None,
                      partition=None, metrics=None) -> RouteFrequencies:
    """Per-edge load over a workload of (origin, destination) pairs.

    Pairs are grouped by origin; each distinct origin costs one
    :meth:`CSRGraph.sssp_parents` tree, and every target walks its
    parent chain adding its weight (default 1.0) into one
    edge-indexed array.  With ``plane``, origin groups tile across the
    pool and sparse per-tile counts merge by CSR edge position.
    """
    pairs = list(pairs)
    if not pairs:
        raise AnalyticsError("route_frequencies needs at least one pair")
    began = perf_counter()
    kernel = csr_for(network)
    groups = group_pairs(pairs, weights)
    num_tiles = 1
    if plane is not None and len(groups) > 1:
        name = require_cost_name(cost)
        by_source = dict(groups)
        source_tiles = tile_sources([source for source, _ in groups],
                                    tile_size or _auto_tile_size(len(groups),
                                                                 plane),
                                    partition)
        payloads = [
            {"product": "route_freq",
             "groups": [[source, by_source[source]] for source in tile],
             "cost": name}
            for tile in source_tiles
        ]
        num_tiles = len(payloads)
        results = _fan_out(plane, payloads, metrics)
        counts = np.zeros(len(kernel.indices), dtype=np.float64)
        num_pairs = unreachable = 0
        for result in results:
            np.add.at(counts, np.asarray(result["positions"], dtype=np.int64),
                      np.asarray(result["counts"], dtype=np.float64))
            num_pairs += result["num_pairs"]
            unreachable += result["unreachable"]
    else:
        counts, num_pairs, unreachable = route_frequency_counts(
            kernel, groups, cost=cost)
    _observe(metrics, "route_freq", pairs=num_pairs,
             elapsed_s=perf_counter() - began, tiles=num_tiles,
             pooled=plane is not None and num_tiles > 1)
    if metrics is not None:
        metrics.counter("analytics.route_freq.unreachable").inc(unreachable)
    return RouteFrequencies(kernel=kernel, counts=counts,
                            num_pairs=num_pairs,
                            unreachable_pairs=unreachable)


class BatchAnalytics:
    """The analytics plane: a network bundled with its batch context.

    Holds the optional :class:`~repro.exec.plane.ExecutionPlane`
    (tiles fan across its pool), :class:`GraphPartition` (shard-aware
    tiling), :class:`MetricsRegistry` (``analytics.*`` accounting) and
    default chunk/tile sizes, and exposes the products as methods so
    callers configure once and query many times.
    """

    def __init__(self, network, *, plane=None, partition=None, metrics=None,
                 tile_size: int | None = None,
                 chunk_size: int | None = None) -> None:
        self.network = network
        self.plane = plane
        self.partition = partition
        self.metrics = metrics
        self.tile_size = tile_size
        self.chunk_size = chunk_size

    def od_cost_matrix(self, origins, destinations=None, *, cost=None,
                       method: str = "auto") -> ODMatrix:
        return od_cost_matrix(self.network, origins, destinations,
                              cost=cost, method=method,
                              chunk_size=self.chunk_size,
                              tile_size=self.tile_size, plane=self.plane,
                              partition=self.partition,
                              metrics=self.metrics)

    def od_cost_pairs(self, pairs, *, cost=None,
                      method: str = "auto") -> np.ndarray:
        return od_cost_pairs(self.network, pairs, cost=cost, method=method,
                             chunk_size=self.chunk_size,
                             metrics=self.metrics)

    def service_area(self, sources, budgets, *, cost=None,
                     reverse: bool = False):
        return service_area(self.network, sources, budgets, cost=cost,
                            reverse=reverse, chunk_size=self.chunk_size,
                            tile_size=self.tile_size, plane=self.plane,
                            partition=self.partition, metrics=self.metrics)

    def route_frequencies(self, pairs, *, weights=None,
                          cost=None) -> RouteFrequencies:
        return route_frequencies(self.network, pairs, weights=weights,
                                 cost=cost, tile_size=self.tile_size,
                                 plane=self.plane, partition=self.partition,
                                 metrics=self.metrics)
