"""Spatial road networks.

A :class:`RoadNetwork` is a directed graph whose vertices carry planar
coordinates (metres) and whose edges carry length, speed, and a road
category.  This is the substrate every other subsystem builds on: the
routing algorithms, node2vec walks, trajectory simulation, and PathRank
itself all consume this structure.
"""

from __future__ import annotations

import enum
import hashlib
import math
import struct
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass

from repro.errors import EdgeNotFoundError, GraphError, VertexNotFoundError

__all__ = ["RoadCategory", "Vertex", "Edge", "RoadNetwork"]


class RoadCategory(enum.Enum):
    """Coarse functional road classes, mirroring OSM highway values."""

    MOTORWAY = "motorway"
    ARTERIAL = "arterial"
    LOCAL = "local"
    RESIDENTIAL = "residential"

    @property
    def default_speed(self) -> float:
        """Default free-flow speed in km/h for the class."""
        return _DEFAULT_SPEEDS[self]


_DEFAULT_SPEEDS = {
    RoadCategory.MOTORWAY: 110.0,
    RoadCategory.ARTERIAL: 80.0,
    RoadCategory.LOCAL: 50.0,
    RoadCategory.RESIDENTIAL: 30.0,
}


def check_point(vertex_id: int, x: float, y: float) -> None:
    """Refuse a vertex position that is not a finite point."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise GraphError(f"vertex {vertex_id} has non-finite position ({x}, {y})")


def check_road(source: int, target: int, length: float, speed: float) -> None:
    """Refuse a road whose length or speed is not positive and finite."""
    if not 0.0 < length < math.inf:
        raise GraphError(f"edge ({source}->{target}) has length {length}; "
                         "it must be positive and finite")
    if not 0.0 < speed < math.inf:
        raise GraphError(f"edge ({source}->{target}) has speed {speed}; "
                         "it must be positive and finite")


def kosaraju(successors: Mapping[int, Sequence[int]],
             predecessors: Mapping[int, Sequence[int]]) -> list[set[int]]:
    """Strongly connected components of a directed graph given as plain
    adjacency lists, by Kosaraju's algorithm.

    Iterative, since road graphs exceed the default recursion limit.
    ``successors`` must hold every vertex as a key; its iteration order
    and the order inside each list fix the order of the returned
    components, which is how callers break ties among equal-size ones.
    """
    order: list[int] = []
    visited: set[int] = set()
    for start in successors:
        if start in visited:
            continue
        stack: list[tuple[int, Iterator[int]]] = [(start, iter(successors[start]))]
        visited.add(start)
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if nxt not in visited:
                    visited.add(nxt)
                    stack.append((nxt, iter(successors[nxt])))
                    break
            else:
                order.append(node)
                stack.pop()

    components: list[set[int]] = []
    assigned: set[int] = set()
    for start in reversed(order):
        if start in assigned:
            continue
        component = {start}
        assigned.add(start)
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for prev in predecessors[node]:
                if prev not in assigned:
                    assigned.add(prev)
                    component.add(prev)
                    frontier.append(prev)
        components.append(component)
    return components


@dataclass(frozen=True)
class Vertex:
    """A network vertex at planar position ``(x, y)`` in metres."""

    id: int
    x: float
    y: float

    def distance_to(self, other: "Vertex") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Edge:
    """A directed road segment.

    ``length`` is in metres and ``speed`` in km/h; ``travel_time`` is
    derived, in seconds.
    """

    source: int
    target: int
    length: float
    speed: float
    category: RoadCategory = RoadCategory.LOCAL

    def __post_init__(self) -> None:
        check_road(self.source, self.target, self.length, self.speed)

    @property
    def travel_time(self) -> float:
        """Free-flow traversal time in seconds."""
        return self.length / (self.speed / 3.6)

    @property
    def key(self) -> tuple[int, int]:
        return (self.source, self.target)


class RoadNetwork:
    """Directed spatial graph with O(1) vertex/edge lookup.

    Vertices are identified by integers.  At most one directed edge per
    ordered vertex pair is allowed (parallel roads between the same two
    junctions are out of scope for the paper's setting, which works on
    simple road graphs).

    A network is built, then read.  The first derived read
    (:attr:`fingerprint`, and so the CSR routing kernel) seals it:
    afterwards ``add_*`` raises :class:`GraphError`, so everything
    derived from a network stays valid for its lifetime.
    """

    def __init__(self, name: str = "road-network") -> None:
        self.name = name
        self._vertices: dict[int, Vertex] = {}
        self._edges: dict[tuple[int, int], Edge] = {}
        self._out: dict[int, list[Edge]] = {}
        self._in: dict[int, list[Edge]] = {}
        #: Set by the first :attr:`fingerprint` read, which seals the
        #: network against further ``add_*``.
        self._fingerprint: tuple[int, int, str] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _refuse_if_sealed(self) -> None:
        if self._fingerprint is not None:
            raise GraphError(f"network {self.name!r} is sealed: it was read, "
                             "so it can no longer be changed")

    def add_vertex(self, vertex_id: int, x: float, y: float) -> Vertex:
        self._refuse_if_sealed()
        if vertex_id in self._vertices:
            raise GraphError(f"vertex {vertex_id} already exists")
        vertex = Vertex(int(vertex_id), float(x), float(y))
        check_point(vertex.id, vertex.x, vertex.y)
        self._vertices[vertex.id] = vertex
        self._out[vertex.id] = []
        self._in[vertex.id] = []
        return vertex

    def add_edge(
        self,
        source: int,
        target: int,
        length: float | None = None,
        speed: float | None = None,
        category: RoadCategory = RoadCategory.LOCAL,
    ) -> Edge:
        """Insert a directed edge.

        ``length`` defaults to the euclidean distance between endpoints;
        ``speed`` defaults to the category's free-flow speed.
        """
        self._refuse_if_sealed()
        if source not in self._vertices:
            raise VertexNotFoundError(source)
        if target not in self._vertices:
            raise VertexNotFoundError(target)
        if source == target:
            raise GraphError(f"self-loop at vertex {source} is not allowed")
        key = (source, target)
        if key in self._edges:
            raise GraphError(f"edge {key} already exists")
        if length is None:
            length = self.euclidean(source, target)
            if length == 0.0:
                raise GraphError(
                    f"vertices {source} and {target} are co-located; provide a length"
                )
        edge = Edge(
            source=int(source),
            target=int(target),
            length=float(length),
            speed=float(speed) if speed is not None else category.default_speed,
            category=category,
        )
        self._edges[key] = edge
        self._out[source].append(edge)
        self._in[target].append(edge)
        return edge

    def add_two_way(
        self,
        a: int,
        b: int,
        length: float | None = None,
        speed: float | None = None,
        category: RoadCategory = RoadCategory.LOCAL,
    ) -> tuple[Edge, Edge]:
        """Insert both directions of a bidirectional road."""
        forward = self.add_edge(a, b, length=length, speed=speed, category=category)
        backward = self.add_edge(b, a, length=forward.length, speed=forward.speed,
                                 category=category)
        return forward, backward

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def vertex(self, vertex_id: int) -> Vertex:
        try:
            return self._vertices[vertex_id]
        except KeyError:
            raise VertexNotFoundError(vertex_id) from None

    def has_vertex(self, vertex_id: int) -> bool:
        return vertex_id in self._vertices

    def edge(self, source: int, target: int) -> Edge:
        try:
            return self._edges[(source, target)]
        except KeyError:
            raise EdgeNotFoundError(source, target) from None

    def has_edge(self, source: int, target: int) -> bool:
        return (source, target) in self._edges

    def vertices(self) -> Iterator[Vertex]:
        return iter(self._vertices.values())

    def vertex_ids(self) -> list[int]:
        return list(self._vertices)

    def edges(self) -> Iterator[Edge]:
        return iter(self._edges.values())

    def out_edges(self, vertex_id: int) -> list[Edge]:
        try:
            return list(self._out[vertex_id])
        except KeyError:
            raise VertexNotFoundError(vertex_id) from None

    def successors(self, vertex_id: int) -> list[int]:
        if vertex_id not in self._vertices:
            raise VertexNotFoundError(vertex_id)
        return [e.target for e in self._out[vertex_id]]

    def predecessors(self, vertex_id: int) -> list[int]:
        if vertex_id not in self._vertices:
            raise VertexNotFoundError(vertex_id)
        return [e.source for e in self._in[vertex_id]]

    def degree(self, vertex_id: int) -> int:
        """Total degree (in + out)."""
        if vertex_id not in self._vertices:
            raise VertexNotFoundError(vertex_id)
        return len(self._out[vertex_id]) + len(self._in[vertex_id])

    @property
    def fingerprint(self) -> tuple[int, int, str]:
        """Cheap content fingerprint: ``(num_vertices, num_edges, digest)``.

        The digest covers every edge's endpoints, length, speed, and
        category in canonical (sorted-key) order.  Computed once, on the
        first read, which seals the network.
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(struct.pack("<qq", len(self._vertices), len(self._edges)))
            for key in sorted(self._edges):
                edge = self._edges[key]
                digest.update(struct.pack("<qqdd", edge.source, edge.target,
                                          edge.length, edge.speed))
                digest.update(edge.category.value.encode("ascii"))
            self._fingerprint = (len(self._vertices), len(self._edges),
                                 digest.hexdigest())
        return self._fingerprint

    def euclidean(self, a: int, b: int) -> float:
        """Straight-line distance between two vertices, in metres."""
        return self.vertex(a).distance_to(self.vertex(b))

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def strongly_connected_components(self) -> list[set[int]]:
        """Strongly connected components, by :func:`kosaraju` over this
        network's adjacency in insertion order (vertices, then each
        vertex's out-edges), which fixes the order of the components."""
        successors = {v: [e.target for e in out] for v, out in self._out.items()}
        predecessors = {v: [e.source for e in into] for v, into in self._in.items()}
        return kosaraju(successors, predecessors)

    def is_strongly_connected(self) -> bool:
        if not self._vertices:
            return True
        return len(self.strongly_connected_components()) == 1

    def relabelled(self) -> tuple["RoadNetwork", dict[int, int]]:
        """Copy with vertices renumbered 0..n-1 (sorted by old id).

        Returns the new network and the old→new id mapping.  The
        embedding layer indexes vertices densely, so a hand-built network
        with sparse ids is relabelled before training or serving.
        """
        mapping = {old: new for new, old in enumerate(sorted(self._vertices))}
        renamed = RoadNetwork(name=self.name)
        for old, new in mapping.items():
            v = self._vertices[old]
            renamed.add_vertex(new, v.x, v.y)
        for edge in self._edges.values():
            renamed.add_edge(mapping[edge.source], mapping[edge.target],
                             length=edge.length, speed=edge.speed, category=edge.category)
        return renamed, mapping

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Export to a :class:`networkx.DiGraph` (used as a test oracle)."""
        import networkx as nx

        graph = nx.DiGraph()
        for v in self._vertices.values():
            graph.add_node(v.id, x=v.x, y=v.y)
        for e in self._edges.values():
            graph.add_edge(e.source, e.target, length=e.length, speed=e.speed,
                           travel_time=e.travel_time, category=e.category.value)
        return graph

    def __repr__(self) -> str:
        return (f"RoadNetwork(name={self.name!r}, vertices={self.num_vertices}, "
                f"edges={self.num_edges})")

    def __contains__(self, vertex_id: int) -> bool:
        return vertex_id in self._vertices
