"""Shortest paths on the dict reference lane: Dijkstra.

Every search takes an *edge-cost function* so the same machinery serves
shortest-distance routing, fastest-time routing, and the personalised
driver costs of the trajectory simulator.  Yen's algorithm (``ksp.py``)
reuses :func:`dijkstra` through its ``banned_vertices``/``banned_edges``
hooks.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Iterable

from repro.errors import NoPathError, VertexNotFoundError
from repro.graph.network import Edge, RoadNetwork
from repro.graph.path import Path

__all__ = [
    "CostFunction",
    "length_cost",
    "travel_time_cost",
    "dijkstra",
    "shortest_path",
    "shortest_path_cost",
]

CostFunction = Callable[[Edge], float]


def length_cost(edge: Edge) -> float:
    """Cost = edge length in metres (shortest-distance routing)."""
    return edge.length


def travel_time_cost(edge: Edge) -> float:
    """Cost = free-flow travel time in seconds (fastest routing)."""
    return edge.travel_time


def _check_endpoints(network: RoadNetwork, source: int, target: int | None) -> None:
    if not network.has_vertex(source):
        raise VertexNotFoundError(source)
    if target is not None and not network.has_vertex(target):
        raise VertexNotFoundError(target)


def dijkstra(
    network: RoadNetwork,
    source: int,
    cost: CostFunction = length_cost,
    target: int | None = None,
    banned_vertices: Iterable[int] = (),
    banned_edges: Iterable[tuple[int, int]] = (),
) -> tuple[dict[int, float], dict[int, int]]:
    """Single-source shortest paths.

    Returns ``(dist, prev)`` maps.  With ``target`` set, stops as soon as
    the target is settled.  ``banned_vertices`` and ``banned_edges``
    support Yen's spur computations without copying the network.
    """
    _check_endpoints(network, source, target)
    banned_v = set(banned_vertices)
    banned_e = set(banned_edges)
    if source in banned_v:
        return {}, {}

    dist: dict[int, float] = {source: 0.0}
    prev: dict[int, int] = {}
    settled: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == target:
            break
        for edge in network.out_edges(node):
            neighbor = edge.target
            if neighbor in settled or neighbor in banned_v or edge.key in banned_e:
                continue
            weight = cost(edge)
            if not weight >= 0:  # rejects NaN as well
                raise ValueError(
                    f"negative or NaN edge cost {weight} on {edge.key}; "
                    "Dijkstra requires non-negative costs"
                )
            candidate = d + weight
            if candidate < dist.get(neighbor, math.inf):
                dist[neighbor] = candidate
                prev[neighbor] = node
                heapq.heappush(heap, (candidate, neighbor))
    return dist, prev


def _reconstruct(prev: dict[int, int], source: int, target: int) -> list[int]:
    sequence = [target]
    node = target
    while node != source:
        node = prev[node]
        sequence.append(node)
    sequence.reverse()
    return sequence


def shortest_path(
    network: RoadNetwork,
    source: int,
    target: int,
    cost: CostFunction = length_cost,
    banned_vertices: Iterable[int] = (),
    banned_edges: Iterable[tuple[int, int]] = (),
    backend: str | None = None,
) -> Path:
    """Least-cost path from ``source`` to ``target``.

    Raises :class:`NoPathError` when ``target`` is unreachable.  Plain
    queries (no bans) run on the CSR kernel unless the reference backend
    is forced via ``backend="dict"`` or ``REPRO_ROUTING_BACKEND=dict``;
    banned-vertex/edge queries always use the reference implementation.
    """
    if source == target:
        raise NoPathError(source, target)
    if not banned_vertices and not banned_edges:
        from repro.graph import csr  # deferred: csr imports this module

        if csr.resolve_backend(backend) == "csr":
            vertices, _ = csr.csr_for(network).shortest_path_ids(
                source, target, cost)
            return Path(network, vertices)
    dist, prev = dijkstra(network, source, cost, target=target,
                          banned_vertices=banned_vertices, banned_edges=banned_edges)
    if target not in dist:
        raise NoPathError(source, target)
    return Path(network, _reconstruct(prev, source, target))


def shortest_path_cost(
    network: RoadNetwork, source: int, target: int,
    cost: CostFunction = length_cost, backend: str | None = None,
) -> float:
    """The cost of the least-cost path (without materialising it)."""
    if source == target:
        return 0.0
    from repro.graph import csr  # deferred: csr imports this module

    if csr.resolve_backend(backend) == "csr":
        return csr.csr_for(network).shortest_path_cost(source, target, cost)
    dist, _ = dijkstra(network, source, cost, target=target)
    if target not in dist:
        raise NoPathError(source, target)
    return dist[target]
