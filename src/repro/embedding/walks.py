"""Second-order biased random walks over a road network (node2vec).

The walk of Grover & Leskovec (2016) interpolates between BFS-like and
DFS-like exploration through the return parameter ``p`` and the in-out
parameter ``q``: from the step ``t -> v``, the unnormalised probability
of moving on to ``x`` is

* ``w(v,x) / p``  if ``x == t``                (returning),
* ``w(v,x)``      if ``x`` is a neighbour of ``t`` (staying close),
* ``w(v,x) / q``  otherwise                    (moving outward),

with ``w`` the edge weight (uniform by default — road-graph embeddings
care about topology; pass ``weighted=True`` to use edge lengths).
"""

from __future__ import annotations

import math

import numpy as np

from repro.embedding.alias import AliasSampler
from repro.graph.network import RoadNetwork
from repro.rng import RngLike, make_rng

__all__ = ["BiasedWalkGenerator"]


class BiasedWalkGenerator:
    """Precomputes alias tables, then generates walks in O(1) per step."""

    def __init__(
        self,
        network: RoadNetwork,
        p: float = 1.0,
        q: float = 1.0,
        weighted: bool = False,
    ) -> None:
        if not (0 < p < math.inf and 0 < q < math.inf):
            raise ValueError(f"p and q must be positive and finite, got p={p}, q={q}")
        if network.num_vertices == 0:
            raise ValueError("cannot walk an empty network")
        self.network = network
        self.p = float(p)
        self.q = float(q)
        self.weighted = weighted

        self._successors: dict[int, list[int]] = {
            v: network.successors(v) for v in network.vertex_ids()
        }
        self._successor_sets = {v: set(s) for v, s in self._successors.items()}

        # First-order tables (used for the first step of each walk).
        self._first_order: dict[int, AliasSampler] = {}
        for v, successors in self._successors.items():
            if successors:
                self._first_order[v] = AliasSampler(
                    [self._edge_weight(v, x) for x in successors]
                )

        # Second-order tables keyed by the directed edge just traversed.
        self._second_order: dict[tuple[int, int], AliasSampler] = {}
        for prev in network.vertex_ids():
            for current in self._successors[prev]:
                successors = self._successors[current]
                if not successors:
                    continue
                weights = []
                prev_neighbours = self._successor_sets[prev]
                for nxt in successors:
                    weight = self._edge_weight(current, nxt)
                    if nxt == prev:
                        weight /= self.p
                    elif nxt not in prev_neighbours:
                        weight /= self.q
                    weights.append(weight)
                self._second_order[(prev, current)] = AliasSampler(weights)

    def _edge_weight(self, u: int, v: int) -> float:
        if not self.weighted:
            return 1.0
        return self.network.edge(u, v).length

    def walk(self, start: int, length: int, rng: RngLike = None) -> list[int]:
        """One walk of up to ``length`` vertices starting at ``start``.

        Shorter walks are returned when a dead-end is hit (cannot happen
        on strongly connected networks).
        """
        if length < 1:
            raise ValueError(f"walk length must be >= 1, got {length}")
        generator = make_rng(rng)
        walk = [start]
        if length == 1:
            return walk
        first = self._first_order.get(start)
        if first is None:
            return walk
        walk.append(self._successors[start][first.sample(generator)])
        while len(walk) < length:
            prev, current = walk[-2], walk[-1]
            table = self._second_order.get((prev, current))
            if table is None:
                break
            walk.append(self._successors[current][table.sample(generator)])
        return walk

    def generate(
        self,
        num_walks: int,
        walk_length: int,
        rng: RngLike = None,
    ) -> list[list[int]]:
        """``num_walks`` walks from every vertex, in shuffled start order
        (matching the reference implementation's epoch structure)."""
        if num_walks < 1:
            raise ValueError(f"num_walks must be >= 1, got {num_walks}")
        generator = make_rng(rng)
        vertex_ids = np.array(self.network.vertex_ids())
        walks: list[list[int]] = []
        for _ in range(num_walks):
            generator.shuffle(vertex_ids)
            for start in vertex_ids:
                walks.append(self.walk(int(start), walk_length, rng=generator))
        return walks
