"""Product orchestration: sweep-side choice, pool fan-out.

The functions here decide *how* a product is computed — which side to
sweep, how to tile across the process pool — and then delegate the
arithmetic to :mod:`repro.analytics.products`, so a pooled run and an
inline run execute byte-identical kernel code.

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
    ServiceArea,
    check_budgets,
    group_pairs,
    od_sweep_block,
    require_cost_name,
    route_frequency_counts,
    service_area_blocks,
)
from repro.analytics.tiling import DEFAULT_TILE_SIZE, tile_sources
from repro.errors import AnalyticsError
from repro.graph.csr import csr_for

__all__ = [
    "od_cost_matrix",
    "od_cost_pairs",
    "service_area",
    "route_frequencies",
]


def _auto_tile_size(num_sources: int, plane) -> int:
    """Tiles sized for load balance: ~2 waves across the pool, capped
    at :data:`DEFAULT_TILE_SIZE` so a huge job still streams."""
    if plane is None:
        return max(1, num_sources)
    per_wave = ceil(num_sources / max(1, 2 * plane.pool.workers))
    return max(1, min(DEFAULT_TILE_SIZE, per_wave))


def _check_chunk_size(chunk_size: int | None) -> None:
    """Refuse a slab size the kernel cannot sweep, before any tile: a
    pooled one would otherwise fail inside a worker as its ExecError."""
    if chunk_size is not None and chunk_size < 1:
        raise AnalyticsError(f"chunk_size must be >= 1, got {chunk_size}")


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


def od_cost_matrix(network, origins, destinations=None, *, cost=None,
                   method: str = "auto", chunk_size: int | None = None,
                   plane=None, metrics=None) -> ODMatrix:
    """Many-to-many least costs as one (or a few) batched sweeps.

    Sweeps the *smaller* side — forward multi-source over origins when
    ``len(origins) <= len(destinations)``, else reverse multi-source
    over destinations — in bounded ``chunk_size`` slabs, gathering only
    the requested columns from each slab.  ``method`` is ``"auto"`` or
    ``"sweep"``, which are the same thing.  With ``plane``, the sweep
    side is cut into input-order tiles that fan across the worker pool.
    Disconnected pairs cost ``inf``; ``d(v, v) == 0``.
    """
    origins = list(origins)
    destinations = list(destinations) if destinations is not None \
        else list(origins)
    if not origins or not destinations:
        raise AnalyticsError("od_cost_matrix needs origins and destinations")
    if method not in ("auto", "sweep"):
        raise AnalyticsError(f"unknown od method {method!r}")
    _check_chunk_size(chunk_size)
    began = perf_counter()
    kernel = csr_for(network)
    forward = len(origins) <= len(destinations)
    sweep_ids = origins if forward else destinations
    col_ids = destinations if forward else origins
    num_tiles = 1
    if plane is not None and len(sweep_ids) > 1:
        name = require_cost_name(cost)
        tiles = tile_sources(sweep_ids,
                             _auto_tile_size(len(sweep_ids), plane))
        payloads = [
            {"product": "od", "sweep": tile, "cols": col_ids,
             "reverse": not forward, "cost": name, "chunk_size": chunk_size}
            for tile in tiles
        ]
        num_tiles = len(tiles)
        results = _fan_out(plane, payloads, metrics)
        block = np.array([row for result in results for row in result["rows"]],
                         dtype=np.float64)
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
    most; ``method`` is ``"auto"`` or ``"sweep"``, which are the same
    thing.
    """
    pairs = list(pairs)
    if not pairs:
        raise AnalyticsError("od_cost_pairs needs at least one pair")
    if method not in ("auto", "sweep"):
        raise AnalyticsError(f"unknown od method {method!r}")
    _check_chunk_size(chunk_size)
    began = perf_counter()
    kernel = csr_for(network)
    sources = list(dict.fromkeys(origin for origin, _ in pairs))
    out = np.empty(len(pairs), dtype=np.float64)
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
                 plane=None, metrics=None):
    """Isochrones for every (source, budget) pair, source-major in
    input order, budget-minor in input order.

    One batched multi-source sweep (forward = where you can get *to*,
    ``reverse=True`` = where you can come *from*) serves every budget;
    membership is two vectorised comparisons per (row, budget).  With
    ``plane``, sources tile across the pool as for
    :func:`od_cost_matrix`.
    """
    sources = list(sources)
    budgets = [float(b) for b in budgets]
    if not sources:
        raise AnalyticsError("service_area needs at least one source")
    # Before any tile: a pooled bad budget would otherwise surface as
    # the worker's ExecError instead of this AnalyticsError.
    check_budgets(budgets)
    _check_chunk_size(chunk_size)
    began = perf_counter()
    num_tiles = 1
    if plane is not None and len(sources) > 1:
        name = require_cost_name(cost)
        tiles = tile_sources(sources, _auto_tile_size(len(sources), plane))
        payloads = [
            {"product": "service_area", "sources": tile, "budgets": budgets,
             "reverse": reverse, "cost": name, "chunk_size": chunk_size}
            for tile in tiles
        ]
        num_tiles = len(tiles)
        results = _fan_out(plane, payloads, metrics)
        out = [
            ServiceArea(source=entry["source"], budget=entry["budget"],
                        reverse=entry["reverse"],
                        vertices=frozenset(entry["vertices"]),
                        edges=frozenset((u, v) for u, v in entry["edges"]))
            for result in results for entry in result["areas"]
        ]
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
                      plane=None, metrics=None) -> RouteFrequencies:
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
        payloads = [
            {"product": "route_freq",
             "groups": [[source, targets] for source, targets in tile],
             "cost": name}
            for tile in tile_sources(groups,
                                     _auto_tile_size(len(groups), plane))
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
