"""Tiling and the tile wire format for pool fan-out.

A *tile* is one self-contained unit of batch-analytics work small
enough to ship to a worker process: plain vertex ids, budgets, weights
and a cost *name* — never arrays, edge objects, or cost closures.  The
same :func:`run_tile_payload` executes a tile inline (the caller's
kernel) and inside a pool worker (the shared-memory kernel installed
at warmup), which is what makes pooled and inline results identical by
construction.

Shard-aware tiling: when a :class:`~repro.graph.partition.GraphPartition`
is present, :func:`tile_sources` groups sources by home shard before
chunking, so a tile's sweeps start in one region and its searches share
touched pages instead of striding the whole graph.
"""

from __future__ import annotations

from repro.errors import AnalyticsError
from repro.analytics.products import (
    cost_from_name,
    od_sweep_block,
    route_frequency_counts,
    service_area_blocks,
)
from repro.graph.csr import csr_for

__all__ = [
    "tile_sources",
    "run_tile_payload",
    "DEFAULT_TILE_SIZE",
]

#: Sources per tile when neither the caller nor the pool suggests one.
DEFAULT_TILE_SIZE = 32


def tile_sources(sources: list[int], tile_size: int,
                 partition=None) -> list[list[int]]:
    """Split a source set into tiles of at most ``tile_size`` ids.

    With a partition, sources are first grouped by home shard (shard
    order, then input order within a shard) so each tile stays
    region-local; without one, input order is preserved.
    """
    if tile_size < 1:
        raise AnalyticsError(f"tile_size must be >= 1, got {tile_size}")
    if partition is not None:
        by_shard: dict[int, list[int]] = {}
        for vid in sources:
            by_shard.setdefault(partition.shard_of(vid), []).append(vid)
        ordered = [vid for shard in sorted(by_shard) for vid in by_shard[shard]]
    else:
        ordered = list(sources)
    return [ordered[i:i + tile_size]
            for i in range(0, len(ordered), tile_size)]


def run_tile_payload(network, payload: dict) -> dict:
    """Execute one tile against ``network``'s kernel; returns plain
    lists/numbers only (the wire format back to the parent).

    Payloads by ``payload["product"]``:

    - ``"od"``: ``sweep`` ids, ``cols`` ids, ``reverse``, ``cost`` name,
      optional ``chunk_size`` → ``{"rows": [[float, ...], ...]}`` (one
      row per sweep id; ``inf`` survives pickling).
    - ``"service_area"``: ``sources``, ``budgets``, ``reverse``,
      ``cost`` → ``{"areas": [{source, budget, reverse, vertices,
      edges}, ...]}`` source-major, budget-minor.
    - ``"route_freq"``: ``groups`` ``[[source, [[target, weight],
      ...]], ...]``, ``cost`` → sparse ``{"positions": [...], "counts":
      [...], "num_pairs": int, "unreachable": int}`` over CSR edge
      positions (valid across processes — workers attach the identical
      CSR arrays).
    """
    kernel = csr_for(network)
    product = payload.get("product")
    cost = cost_from_name(payload.get("cost"))
    if product == "od":
        rows = od_sweep_block(kernel, list(payload["sweep"]),
                              list(payload["cols"]), cost=cost,
                              reverse=bool(payload.get("reverse", False)),
                              chunk_size=payload.get("chunk_size"))
        return {"rows": rows.tolist()}
    if product == "service_area":
        areas = service_area_blocks(
            kernel, list(payload["sources"]),
            [float(b) for b in payload["budgets"]], cost=cost,
            reverse=bool(payload.get("reverse", False)),
            chunk_size=payload.get("chunk_size"))
        return {"areas": [area.as_dict() for area in areas]}
    if product == "route_freq":
        groups = [(source, [(target, weight) for target, weight in targets])
                  for source, targets in payload["groups"]]
        counts, num_pairs, unreachable = route_frequency_counts(
            kernel, groups, cost=cost)
        positions = counts.nonzero()[0]
        return {
            "positions": positions.tolist(),
            "counts": counts[positions].tolist(),
            "num_pairs": num_pairs,
            "unreachable": unreachable,
        }
    raise AnalyticsError(f"unknown analytics tile product {product!r}")

