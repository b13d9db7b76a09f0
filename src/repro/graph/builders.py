"""Synthetic spatial road-network generators.

The paper evaluates on the North Jutland (Denmark) OSM extract, which is
not available offline; these generators produce deterministic stand-ins
with the structural properties the algorithms care about: planar-ish
topology, a road-category hierarchy with distinct speeds, mild geometric
irregularity, and strong connectivity.

* :func:`grid_network` — a perturbed city grid with an arterial
  sub-grid, the workhorse for tests and small experiments;
* :func:`ring_radial_network` — a ring-and-spoke town;
* :func:`north_jutland_like` — several towns of different sizes joined
  by motorway corridors, the stand-in for the paper's regional network.

Every generator returns a strongly connected network with vertices
relabelled ``0..n-1`` so embeddings can index them densely.

A generator records what it draws in a :class:`NetworkDraft` — vertex
positions, directed roads in insertion order, and plain successor and
predecessor lists — and :meth:`NetworkDraft.build` then builds the one
returned :class:`RoadNetwork` from the draft's largest strongly
connected component, so each network is built exactly once.  The draft
refuses at insertion everything :class:`RoadNetwork` refuses, so a road
the cut drops still fails loudly.  :func:`repro.graph.osm.load_osm_xml`
builds through the same draft.
"""

from __future__ import annotations

import contextlib
import gc
import math

import numpy as np

from repro.errors import GraphError, VertexNotFoundError
from repro.graph.network import (
    RoadCategory,
    RoadNetwork,
    check_point,
    check_road,
    kosaraju,
)
from repro.rng import RngLike, make_rng

__all__ = ["grid_network", "ring_radial_network", "north_jutland_like"]

#: Roads meander: euclidean distance is scaled by a winding factor drawn
#: from this range to obtain the road length.
_WINDING_RANGE = (1.0, 1.25)


class NetworkDraft:
    """A road network under construction, not yet a :class:`RoadNetwork`.

    Internal to :mod:`repro.graph`.  It keeps what a generator or a
    loader inserts as plain values and refuses, at insertion, the same
    inputs :meth:`RoadNetwork.add_vertex` and :meth:`RoadNetwork.add_edge`
    refuse: a duplicate vertex, an unknown endpoint, a self-loop, a
    duplicate road, a non-finite position, and a length or speed that is
    not positive and finite.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.points: dict[int, tuple[float, float]] = {}
        #: ``(source, target, length, speed, category)`` in insertion order.
        self._roads: list[tuple[int, int, float, float, RoadCategory]] = []
        self._keys: set[tuple[int, int]] = set()
        self._successors: dict[int, list[int]] = {}
        self._predecessors: dict[int, list[int]] = {}

    def add_vertex(self, vertex_id: int, x: float, y: float) -> None:
        if vertex_id in self.points:
            raise GraphError(f"vertex {vertex_id} already exists")
        x, y = float(x), float(y)
        check_point(vertex_id, x, y)
        self.points[vertex_id] = (x, y)
        self._successors[vertex_id] = []
        self._predecessors[vertex_id] = []

    def add_edge(self, source: int, target: int, length: float,
                 speed: float | None = None,
                 category: RoadCategory = RoadCategory.LOCAL) -> None:
        if source not in self.points:
            raise VertexNotFoundError(source)
        if target not in self.points:
            raise VertexNotFoundError(target)
        if source == target:
            raise GraphError(f"self-loop at vertex {source} is not allowed")
        key = (source, target)
        if key in self._keys:
            raise GraphError(f"edge {key} already exists")
        length = float(length)
        speed = float(speed) if speed is not None else category.default_speed
        check_road(source, target, length, speed)
        self._keys.add(key)
        self._roads.append((source, target, length, speed, category))
        self._successors[source].append(target)
        self._predecessors[target].append(source)

    def add_two_way(self, a: int, b: int, length: float,
                    category: RoadCategory = RoadCategory.LOCAL) -> None:
        self.add_edge(a, b, length, category=category)
        self.add_edge(b, a, length, category=category)

    def has_edge(self, source: int, target: int) -> bool:
        return (source, target) in self._keys

    def euclidean(self, a: int, b: int) -> float:
        (ax, ay), (bx, by) = self.points[a], self.points[b]
        return math.hypot(ax - bx, ay - by)

    def build(self, largest_scc: bool = True) -> RoadNetwork:
        """The one :class:`RoadNetwork` this draft describes.

        With ``largest_scc`` only the largest strongly connected
        component is kept; ties among equal-size components go to the
        first in :func:`kosaraju` order, as
        :meth:`RoadNetwork.strongly_connected_components` lists them.
        Kept vertices are renumbered ``0..n-1`` in the order of their
        draft ids, and kept roads are added in insertion order.
        """
        keep = self.points
        if largest_scc:
            components = kosaraju(self._successors, self._predecessors)
            keep = max(components, key=len) if components else set()
        new_id = {old: new for new, old in enumerate(sorted(keep))}
        network = RoadNetwork(name=self.name)
        for old, new in new_id.items():
            network.add_vertex(new, *self.points[old])
        for source, target, length, speed, category in self._roads:
            if source in new_id and target in new_id:
                network.add_edge(new_id[source], new_id[target], length=length,
                                 speed=speed, category=category)
        return network


@contextlib.contextmanager
def gc_paused():
    """Pause the cyclic garbage collector while a network is built.

    Building a network allocates a few small objects a road, none of
    them in a reference cycle, and every automatic collection on the way
    traverses all that are alive again while freeing nothing: about a
    third of the time to generate the 230x230 grid on a 2-core x86 host.
    A collector that was already off stays off.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _finalise(draft: NetworkDraft) -> RoadNetwork:
    """Largest SCC, densely relabelled, validated."""
    network = draft.build()
    if network.num_vertices < 2:
        raise GraphError("generator produced a degenerate network")
    return network


def _road_length(rng: np.random.Generator, euclidean: float) -> float:
    low, high = _WINDING_RANGE
    return euclidean * float(rng.uniform(low, high))


@gc_paused()
def grid_network(
    rows: int,
    cols: int,
    spacing: float = 250.0,
    seed: RngLike = None,
    perturbation: float = 0.15,
    removal_probability: float = 0.08,
    arterial_every: int = 4,
    name: str | None = None,
) -> RoadNetwork:
    """A perturbed ``rows x cols`` street grid.

    Every ``arterial_every``-th row/column is an arterial (faster);
    remaining streets are local or residential.  A fraction of edges is
    removed to break the grid's symmetry, then the largest strongly
    connected component is returned.

    ``perturbation`` jitters vertex positions by that fraction of the
    spacing, so no two generated networks are geometrically identical.
    """
    if rows < 2 or cols < 2:
        raise ValueError(f"grid needs at least 2x2 vertices, got {rows}x{cols}")
    if not 0.0 <= perturbation < 0.5:
        raise ValueError(f"perturbation must be in [0, 0.5), got {perturbation}")
    if not 0.0 <= removal_probability < 1.0:
        raise ValueError(
            f"removal_probability must be in [0, 1), got {removal_probability}"
        )
    if arterial_every < 2:
        raise ValueError(f"arterial_every must be >= 2, got {arterial_every}")

    rng = make_rng(seed)
    draft = NetworkDraft(name=name or f"grid-{rows}x{cols}")

    def vertex_id(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            jitter_x = rng.uniform(-perturbation, perturbation) * spacing
            jitter_y = rng.uniform(-perturbation, perturbation) * spacing
            draft.add_vertex(vertex_id(r, c), c * spacing + jitter_x,
                             r * spacing + jitter_y)

    def street_category(r: int, c: int, horizontal: bool) -> RoadCategory:
        on_arterial = (r % arterial_every == 0) if horizontal else (c % arterial_every == 0)
        if on_arterial:
            return RoadCategory.ARTERIAL
        return RoadCategory.LOCAL if rng.random() < 0.6 else RoadCategory.RESIDENTIAL

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols and rng.random() >= removal_probability:
                a, b = vertex_id(r, c), vertex_id(r, c + 1)
                draft.add_two_way(
                    a, b,
                    length=_road_length(rng, draft.euclidean(a, b)),
                    category=street_category(r, c, horizontal=True),
                )
            if r + 1 < rows and rng.random() >= removal_probability:
                a, b = vertex_id(r, c), vertex_id(r + 1, c)
                draft.add_two_way(
                    a, b,
                    length=_road_length(rng, draft.euclidean(a, b)),
                    category=street_category(r, c, horizontal=False),
                )
    return _finalise(draft)


@gc_paused()
def ring_radial_network(
    rings: int = 3,
    spokes: int = 8,
    ring_spacing: float = 500.0,
    seed: RngLike = None,
    name: str | None = None,
) -> RoadNetwork:
    """A ring-and-spoke town: concentric arterials, radial local roads."""
    if rings < 1:
        raise ValueError(f"need at least one ring, got {rings}")
    if spokes < 3:
        raise ValueError(f"need at least three spokes, got {spokes}")

    rng = make_rng(seed)
    draft = NetworkDraft(name=name or f"ring-radial-{rings}x{spokes}")
    draft.add_vertex(0, 0.0, 0.0)  # town centre

    def ring_vertex(ring: int, spoke: int) -> int:
        return 1 + (ring - 1) * spokes + spoke

    for ring in range(1, rings + 1):
        radius = ring * ring_spacing
        for spoke in range(spokes):
            angle = 2.0 * math.pi * spoke / spokes
            wobble = rng.uniform(0.95, 1.05)
            draft.add_vertex(
                ring_vertex(ring, spoke),
                radius * wobble * math.cos(angle),
                radius * wobble * math.sin(angle),
            )

    # Radial roads: centre -> ring 1, then outward along each spoke.
    for spoke in range(spokes):
        first = ring_vertex(1, spoke)
        draft.add_two_way(0, first,
                          length=_road_length(rng, draft.euclidean(0, first)),
                          category=RoadCategory.LOCAL)
        for ring in range(1, rings):
            inner, outer = ring_vertex(ring, spoke), ring_vertex(ring + 1, spoke)
            draft.add_two_way(
                inner, outer,
                length=_road_length(rng, draft.euclidean(inner, outer)),
                category=RoadCategory.LOCAL,
            )

    # Ring roads: arterials around each ring.
    for ring in range(1, rings + 1):
        for spoke in range(spokes):
            a = ring_vertex(ring, spoke)
            b = ring_vertex(ring, (spoke + 1) % spokes)
            draft.add_two_way(a, b,
                              length=_road_length(rng, draft.euclidean(a, b)),
                              category=RoadCategory.ARTERIAL)
    return _finalise(draft)


@gc_paused()
def north_jutland_like(
    num_towns: int = 5,
    town_size_range: tuple[int, int] = (3, 6),
    region_extent: float = 30_000.0,
    seed: RngLike = None,
    name: str = "north-jutland-like",
) -> RoadNetwork:
    """A multi-town region: perturbed-grid towns joined by motorways.

    This is the substitute for the paper's North Jutland road network —
    several population centres with dense low-speed streets, connected
    by sparse high-speed corridors, so that shortest-distance and
    fastest-time routes genuinely differ and the diversified top-k
    enumeration has meaningful alternatives (via town bypasses).
    """
    if num_towns < 2:
        raise ValueError(f"need at least two towns, got {num_towns}")
    low, high = town_size_range
    if low < 2 or high < low:
        raise ValueError(f"invalid town_size_range {town_size_range}")

    rng = make_rng(seed)
    draft = NetworkDraft(name=name)
    next_id = 0
    town_centres: list[tuple[float, float]] = []
    town_gateways: list[list[int]] = []

    # Place town centres with a minimum mutual separation.
    min_separation = region_extent / max(num_towns, 2)
    attempts = 0
    while len(town_centres) < num_towns:
        attempts += 1
        if attempts > 1000:
            raise GraphError("could not place towns; lower num_towns or raise extent")
        cx = float(rng.uniform(0.0, region_extent))
        cy = float(rng.uniform(0.0, region_extent))
        if all(math.hypot(cx - x, cy - y) >= min_separation for x, y in town_centres):
            town_centres.append((cx, cy))

    for cx, cy in town_centres:
        rows = int(rng.integers(low, high + 1))
        cols = int(rng.integers(low, high + 1))
        spacing = float(rng.uniform(200.0, 320.0))
        ids: dict[tuple[int, int], int] = {}
        for r in range(rows):
            for c in range(cols):
                jitter_x = rng.uniform(-0.15, 0.15) * spacing
                jitter_y = rng.uniform(-0.15, 0.15) * spacing
                x = cx + (c - cols / 2.0) * spacing + jitter_x
                y = cy + (r - rows / 2.0) * spacing + jitter_y
                draft.add_vertex(next_id, x, y)
                ids[(r, c)] = next_id
                next_id += 1
        for r in range(rows):
            for c in range(cols):
                if c + 1 < cols:
                    a, b = ids[(r, c)], ids[(r, c + 1)]
                    category = RoadCategory.ARTERIAL if r in (0, rows - 1) \
                        else RoadCategory.LOCAL
                    draft.add_two_way(a, b,
                                      length=_road_length(rng, draft.euclidean(a, b)),
                                      category=category)
                if r + 1 < rows:
                    a, b = ids[(r, c)], ids[(r + 1, c)]
                    category = RoadCategory.ARTERIAL if c in (0, cols - 1) \
                        else RoadCategory.RESIDENTIAL
                    draft.add_two_way(a, b,
                                      length=_road_length(rng, draft.euclidean(a, b)),
                                      category=category)
        # Town gateways: the four grid corners join the motorway system.
        corners = [ids[(0, 0)], ids[(0, cols - 1)], ids[(rows - 1, 0)],
                   ids[(rows - 1, cols - 1)]]
        town_gateways.append(corners)

    # Motorway corridors between each town and its nearest neighbours.
    def nearest_towns(index: int, count: int) -> list[int]:
        cx, cy = town_centres[index]
        ranked = sorted(
            (i for i in range(num_towns) if i != index),
            key=lambda i: math.hypot(town_centres[i][0] - cx, town_centres[i][1] - cy),
        )
        return ranked[:count]

    def lay_corridor(town_a: int, town_b: int, category: RoadCategory) -> None:
        """Connect two towns with a chain of intermediate vertices.

        Distinct gateways (grid corners) are drawn for each corridor, so a
        motorway and a regional road between the same two towns enter the
        towns at different points — giving route alternatives that differ
        over most of their mileage, like real parallel-corridor pairs.
        """
        nonlocal next_id
        gateway_a = int(rng.choice(town_gateways[town_a]))
        gateway_b = int(rng.choice(town_gateways[town_b]))
        ax, ay = draft.points[gateway_a]
        bx, by = draft.points[gateway_b]
        hops = int(rng.integers(1, 4))
        chain = [gateway_a]
        for h in range(1, hops + 1):
            t = h / (hops + 1)
            wobble = rng.uniform(-0.08, 0.08) * region_extent / 10.0
            draft.add_vertex(next_id, ax + (bx - ax) * t + wobble,
                             ay + (by - ay) * t + wobble)
            chain.append(next_id)
            next_id += 1
        chain.append(gateway_b)
        for u, v in zip(chain, chain[1:]):
            if not draft.has_edge(u, v):
                draft.add_two_way(u, v,
                                  length=_road_length(rng, draft.euclidean(u, v)),
                                  category=category)

    # Primary motorway corridors to the 2 nearest towns, plus a slower
    # regional (arterial) road shadowing each motorway and one extra
    # arterial to the 3rd-nearest town: every inter-town OD pair then has
    # at least two substantially different route options.
    linked: set[tuple[int, int]] = set()
    for town in range(num_towns):
        for rank, neighbour in enumerate(nearest_towns(town, 3)):
            key = (min(town, neighbour), max(town, neighbour))
            if key in linked:
                continue
            linked.add(key)
            if rank < 2:
                lay_corridor(town, neighbour, RoadCategory.MOTORWAY)
                lay_corridor(town, neighbour, RoadCategory.ARTERIAL)
            else:
                lay_corridor(town, neighbour, RoadCategory.ARTERIAL)
    return _finalise(draft)
