"""Path-similarity measures.

The paper scores each candidate path against the driver's trajectory
path with the **weighted Jaccard similarity** over edges, weighting each
edge by its length: two paths that share most of their mileage are
similar even if they differ on short connector segments.  That score is
PathRank's regression target.  The unweighted and vertex variants plus a
travel-time weighting are provided for ablations, and the diversified
top-k generator takes any of these as its diversity filter.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import GraphError
from repro.graph.network import Edge
from repro.graph.path import Path

__all__ = [
    "SimilarityFunction",
    "weighted_jaccard",
    "jaccard",
    "vertex_jaccard",
    "time_weighted_jaccard",
    "overlap_ratio",
]

SimilarityFunction = Callable[[Path, Path], float]


def _edge_weight_jaccard(a: Path, b: Path, weight: Callable[[Edge], float]) -> float:
    """Generalised weighted Jaccard: shared weight / union weight."""
    if a.network is not b.network:
        raise GraphError("cannot compare paths over different networks")
    edges_a = a.edge_set
    edges_b = b.edge_set
    shared = edges_a & edges_b
    # Shared edges are a subset of the union, so each edge's weight is
    # looked up exactly once and added to both accumulators as needed.
    network = a.network
    union_weight = 0.0
    shared_weight = 0.0
    for u, v in edges_a | edges_b:
        w = weight(network.edge(u, v))
        union_weight += w
        if (u, v) in shared:
            shared_weight += w
    if union_weight == 0.0:
        return 0.0
    return shared_weight / union_weight


def weighted_jaccard(a: Path, b: Path) -> float:
    """Length-weighted Jaccard over directed edges, in [0, 1].

    ``WJ(P, P_T) = len(P ∩ P_T) / len(P ∪ P_T)`` — the paper's ground
    truth ranking score for candidate ``P`` against trajectory ``P_T``.
    """
    return _edge_weight_jaccard(a, b, lambda e: e.length)


def time_weighted_jaccard(a: Path, b: Path) -> float:
    """Travel-time-weighted Jaccard over directed edges."""
    return _edge_weight_jaccard(a, b, lambda e: e.travel_time)


def jaccard(a: Path, b: Path) -> float:
    """Unweighted Jaccard over directed edge sets."""
    union = a.edge_set | b.edge_set
    if not union:
        return 0.0
    return len(a.edge_set & b.edge_set) / len(union)


def vertex_jaccard(a: Path, b: Path) -> float:
    """Jaccard over vertex sets (coarser than the edge measures)."""
    union = a.vertex_set | b.vertex_set
    if not union:
        return 0.0
    return len(a.vertex_set & b.vertex_set) / len(union)


def overlap_ratio(candidate: Path, reference: Path) -> float:
    """Fraction of ``candidate``'s length shared with ``reference``.

    Asymmetric: 1.0 means the candidate lies entirely on the reference.
    """
    if candidate.network is not reference.network:
        raise GraphError("cannot compare paths over different networks")
    shared = candidate.shared_edges(reference)
    if candidate.length == 0.0:
        return 0.0
    shared_length = sum(candidate.network.edge(u, v).length for u, v in shared)
    return shared_length / candidate.length
