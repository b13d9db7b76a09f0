"""Paths over a road network.

A :class:`Path` is an immutable vertex sequence validated against its
network: every consecutive pair must be an existing directed edge.  The
class exposes the quantities PathRank and the training-data generator
need — length, travel time, the weighted edge set used by the weighted
Jaccard similarity — plus structural helpers (slicing, concatenation,
loop detection).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import cached_property

from repro.errors import InvalidPathError
from repro.graph.network import Edge, RoadNetwork

__all__ = ["Path"]


class Path:
    """An immutable, validated vertex path in a :class:`RoadNetwork`."""

    __slots__ = ("_network", "_vertices", "__dict__")

    def __init__(self, network: RoadNetwork, vertices: Sequence[int]) -> None:
        vertex_tuple = tuple(int(v) for v in vertices)
        if len(vertex_tuple) < 2:
            raise InvalidPathError(
                f"a path needs at least two vertices, got {len(vertex_tuple)}"
            )
        for u, v in zip(vertex_tuple, vertex_tuple[1:]):
            if not network.has_edge(u, v):
                raise InvalidPathError(f"missing edge ({u} -> {v}) in path {vertex_tuple}")
        self._network = network
        self._vertices = vertex_tuple

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def network(self) -> RoadNetwork:
        return self._network

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def source(self) -> int:
        return self._vertices[0]

    @property
    def target(self) -> int:
        return self._vertices[-1]

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._vertices) - 1

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(
            self._network.edge(u, v) for u, v in zip(self._vertices, self._vertices[1:])
        )

    @cached_property
    def edge_keys(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self._vertices, self._vertices[1:]))

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edge_keys)

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self._vertices)

    def is_simple(self) -> bool:
        """True when no vertex repeats (loopless)."""
        return len(self.vertex_set) == len(self._vertices)

    # ------------------------------------------------------------------
    # Measures
    # ------------------------------------------------------------------
    @cached_property
    def length(self) -> float:
        """Total length in metres."""
        return sum(edge.length for edge in self.edges)

    @cached_property
    def travel_time(self) -> float:
        """Total free-flow travel time in seconds."""
        return sum(edge.travel_time for edge in self.edges)

    def cost(self, cost_fn) -> float:
        """Total cost under an arbitrary edge-cost function."""
        return sum(cost_fn(edge) for edge in self.edges)

    def category_length_fractions(self) -> dict[str, float]:
        """Share of path length per road category (feature for baselines)."""
        totals: dict[str, float] = {}
        for edge in self.edges:
            totals[edge.category.value] = totals.get(edge.category.value, 0.0) + edge.length
        total = self.length
        return {category: value / total for category, value in totals.items()}

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------
    def shared_edges(self, other: "Path") -> frozenset[tuple[int, int]]:
        return self.edge_set & other.edge_set

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def prefix(self, num_vertices: int) -> "Path":
        """The sub-path over the first ``num_vertices`` vertices."""
        if not 2 <= num_vertices <= self.num_vertices:
            raise InvalidPathError(
                f"prefix length {num_vertices} out of range [2, {self.num_vertices}]"
            )
        return Path(self._network, self._vertices[:num_vertices])

    def concat(self, other: "Path") -> "Path":
        """Join two paths where ``self`` ends at ``other``'s start."""
        if self.target != other.source:
            raise InvalidPathError(
                f"cannot concatenate: {self.target} != {other.source}"
            )
        if self._network is not other._network:
            raise InvalidPathError("cannot concatenate paths over different networks")
        return Path(self._network, self._vertices + other._vertices[1:])

    # ------------------------------------------------------------------
    # Protocols
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[int]:
        return iter(self._vertices)

    def __len__(self) -> int:
        return len(self._vertices)

    def __getitem__(self, index: int) -> int:
        return self._vertices[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return self._vertices == other._vertices and self._network is other._network

    def __hash__(self) -> int:
        return hash(self._vertices)

    def __repr__(self) -> str:
        if self.num_vertices <= 6:
            inner = "->".join(str(v) for v in self._vertices)
        else:
            head = "->".join(str(v) for v in self._vertices[:3])
            inner = f"{head}->...->{self._vertices[-1]}"
        return f"Path({inner}, length={self.length:.0f}m)"
