"""Top-k shortest loopless paths (Yen's algorithm).

Provides both the eager :func:`yen_k_shortest_paths` used by the TkDI
training-data strategy and the lazy :func:`yen_path_generator` that the
diversified strategy (D-TkDI) consumes: diversification may need to
examine far more than *k* paths before accepting *k* diverse ones, so it
pulls paths in non-decreasing cost order until satisfied.

Both functions dispatch through the routing-backend seam: by default the
enumeration runs on the CSR kernel (:mod:`repro.graph.csr`), with
ALT-guided spur searches on large networks, and kernel results are
converted back to :class:`Path` objects here at the boundary.  The
dict-based implementation below is the reference; force it with
``backend="dict"`` or ``REPRO_ROUTING_BACKEND=dict``.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterator

from repro.errors import NoPathError
from repro.graph import csr
from repro.graph.network import RoadNetwork
from repro.graph.path import Path
from repro.graph.shortest_path import CostFunction, length_cost, shortest_path

__all__ = ["yen_k_shortest_paths", "yen_path_generator"]


def yen_path_generator(
    network: RoadNetwork,
    source: int,
    target: int,
    cost: CostFunction = length_cost,
    max_paths: int | None = None,
    backend: str | None = None,
) -> Iterator[Path]:
    """Yield loopless paths from ``source`` to ``target`` in
    non-decreasing cost order (Yen, 1971).

    Raises :class:`NoPathError` immediately when no path exists at all;
    otherwise yields until the path space or ``max_paths`` is exhausted.
    """
    if max_paths is not None and max_paths < 1:
        raise ValueError(f"max_paths must be positive, got {max_paths}")
    if csr.resolve_backend(backend) == "csr":
        kernel = csr.csr_for(network)
        for vertices, _ in kernel.yen_ids(source, target, cost,
                                          max_paths=max_paths):
            yield Path(network, vertices)
        return

    first = shortest_path(network, source, target, cost, backend="dict")
    yield first

    accepted: list[Path] = [first]
    # Candidate heap entries: (cost, insertion order, path).  The counter
    # breaks ties deterministically without comparing Path objects.
    counter = itertools.count()
    candidates: list[tuple[float, int, Path]] = []
    seen: set[tuple[int, ...]] = {first.vertices}
    produced = 1

    while max_paths is None or produced < max_paths:
        previous = accepted[-1]
        prev_vertices = previous.vertices
        # Deviate from every prefix of the previously accepted path.
        for spur_index in range(previous.num_vertices - 1):
            spur_vertex = prev_vertices[spur_index]
            root_vertices = prev_vertices[: spur_index + 1]

            banned_edges: set[tuple[int, int]] = set()
            for path in accepted:
                if path.vertices[: spur_index + 1] == root_vertices:
                    banned_edges.add(
                        (path.vertices[spur_index], path.vertices[spur_index + 1])
                    )
            banned_vertices = set(root_vertices[:-1])

            try:
                spur = shortest_path(
                    network,
                    spur_vertex,
                    target,
                    cost,
                    banned_vertices=banned_vertices,
                    banned_edges=banned_edges,
                    backend="dict",
                )
            except NoPathError:
                continue

            total_vertices = root_vertices[:-1] + spur.vertices
            if total_vertices in seen:
                continue
            seen.add(total_vertices)
            candidate = Path(network, total_vertices)
            heapq.heappush(
                candidates, (candidate.cost(cost), next(counter), candidate)
            )

        if not candidates:
            return
        _, _, best = heapq.heappop(candidates)
        accepted.append(best)
        produced += 1
        yield best


def yen_k_shortest_paths(
    network: RoadNetwork,
    source: int,
    target: int,
    k: int,
    cost: CostFunction = length_cost,
    backend: str | None = None,
) -> list[Path]:
    """The ``k`` cheapest loopless paths, cheapest first.

    Returns fewer than ``k`` paths when the path space is smaller.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    generator = yen_path_generator(network, source, target, cost,
                                   max_paths=k, backend=backend)
    return list(generator)
