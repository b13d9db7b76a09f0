"""Shortest-path algorithms: Dijkstra, bidirectional Dijkstra, A*.

All algorithms take an *edge-cost function* so the same machinery serves
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
    "bidirectional_dijkstra",
    "astar",
    "travel_time_heuristic",
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


def bidirectional_dijkstra(
    network: RoadNetwork,
    source: int,
    target: int,
    cost: CostFunction = length_cost,
) -> Path:
    """Bidirectional Dijkstra: meet-in-the-middle search.

    Settles roughly half the vertices plain Dijkstra would on spatial
    graphs; the candidate-generation benchmarks quantify this.
    """
    _check_endpoints(network, source, target)
    if source == target:
        raise NoPathError(source, target)

    dist_f: dict[int, float] = {source: 0.0}
    dist_b: dict[int, float] = {target: 0.0}
    prev_f: dict[int, int] = {}
    next_b: dict[int, int] = {}
    settled_f: set[int] = set()
    settled_b: set[int] = set()
    heap_f: list[tuple[float, int]] = [(0.0, source)]
    heap_b: list[tuple[float, int]] = [(0.0, target)]
    best = math.inf
    meeting = -1

    def scan_forward() -> None:
        nonlocal best, meeting
        d, node = heapq.heappop(heap_f)
        if node in settled_f:
            return
        settled_f.add(node)
        for edge in network.out_edges(node):
            weight = cost(edge)
            candidate = d + weight
            if candidate < dist_f.get(edge.target, math.inf):
                dist_f[edge.target] = candidate
                prev_f[edge.target] = node
                heapq.heappush(heap_f, (candidate, edge.target))
            if edge.target in dist_b and candidate + dist_b[edge.target] < best:
                best = candidate + dist_b[edge.target]
                meeting = edge.target

    def scan_backward() -> None:
        nonlocal best, meeting
        d, node = heapq.heappop(heap_b)
        if node in settled_b:
            return
        settled_b.add(node)
        for edge in network.in_edges(node):
            weight = cost(edge)
            candidate = d + weight
            if candidate < dist_b.get(edge.source, math.inf):
                dist_b[edge.source] = candidate
                next_b[edge.source] = node
                heapq.heappush(heap_b, (candidate, edge.source))
            if edge.source in dist_f and candidate + dist_f[edge.source] < best:
                best = candidate + dist_f[edge.source]
                meeting = edge.source

    while heap_f and heap_b:
        if heap_f[0][0] + heap_b[0][0] >= best:
            break
        if heap_f[0][0] <= heap_b[0][0]:
            scan_forward()
        else:
            scan_backward()

    if meeting < 0:
        raise NoPathError(source, target)

    forward_part = _reconstruct(prev_f, source, meeting)
    node = meeting
    while node != target:
        node = next_b[node]
        forward_part.append(node)
    return Path(network, forward_part)


def travel_time_heuristic(network: RoadNetwork, target: int) -> Callable[[int], float]:
    """Admissible heuristic for time costs: distance at the network's
    maximum speed."""
    goal = network.vertex(target)
    max_speed = max((e.speed for e in network.edges()), default=1.0) / 3.6
    return lambda node: network.vertex(node).distance_to(goal) / max_speed


def astar(
    network: RoadNetwork,
    source: int,
    target: int,
    cost: CostFunction = length_cost,
    heuristic: Callable[[int], float] | None = None,
) -> Path:
    """A* search; defaults to the straight-line distance to ``target``
    (admissible for length costs because edge length >= straight-line
    distance)."""
    _check_endpoints(network, source, target)
    if source == target:
        raise NoPathError(source, target)
    h = heuristic
    if h is None:
        goal = network.vertex(target)
        h = lambda node: network.vertex(node).distance_to(goal)  # noqa: E731

    dist: dict[int, float] = {source: 0.0}
    prev: dict[int, int] = {}
    settled: set[int] = set()
    heap: list[tuple[float, int]] = [(h(source), source)]
    while heap:
        _, node = heapq.heappop(heap)
        if node in settled:
            continue
        if node == target:
            return Path(network, _reconstruct(prev, source, target))
        settled.add(node)
        d = dist[node]
        for edge in network.out_edges(node):
            neighbor = edge.target
            if neighbor in settled:
                continue
            candidate = d + cost(edge)
            if candidate < dist.get(neighbor, math.inf):
                dist[neighbor] = candidate
                prev[neighbor] = node
                heapq.heappush(heap, (candidate + h(neighbor), neighbor))
    raise NoPathError(source, target)
