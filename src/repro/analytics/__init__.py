"""Batch spatial-analytics plane: kernel-batched network products.

Where the serving stack answers one query at a time, this package
computes *products* — OD cost matrices, service areas (isochrones),
route frequencies — as a handful of batched :class:`CSRGraph` sweeps
instead of per-query Python loops.  Large jobs tile their source sets
and fan the tiles across the :class:`~repro.exec.plane.ExecutionPlane`
process pool, where workers run each tile against the shared-memory
kernel they attached at warmup.

Entry points:

- :func:`od_cost_matrix` / :func:`od_cost_pairs` — many-to-many and
  sparse pair costs (chunked multi-source sweeps, CH lane for sparse
  pair sets).
- :func:`service_area` — per-budget isochrone vertex/edge sets from
  multi-source rows, vectorised in numpy.
- :func:`route_frequencies` — per-edge load over a workload, one SSSP
  tree per distinct source.
- :class:`BatchAnalytics` — the facade bundling a network with an
  optional pool, partition, and metrics registry.
"""

from repro.analytics.batch import (
    BatchAnalytics,
    od_cost_matrix,
    od_cost_pairs,
    route_frequencies,
    service_area,
)
from repro.analytics.products import (
    ODMatrix,
    RouteFrequencies,
    ServiceArea,
    cost_from_name,
    cost_name,
)
from repro.analytics.tiling import tile_sources

__all__ = [
    "BatchAnalytics",
    "ODMatrix",
    "RouteFrequencies",
    "ServiceArea",
    "cost_from_name",
    "cost_name",
    "od_cost_matrix",
    "od_cost_pairs",
    "route_frequencies",
    "service_area",
    "tile_sources",
]
