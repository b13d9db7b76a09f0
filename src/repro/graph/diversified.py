"""Diversified top-k shortest paths — the D-TkDI candidate strategy.

The paper's key training-data insight is that plain top-k shortest paths
(TkDI) are near-duplicates of each other: they differ by a street or
two, so a regression model trained on them sees almost no variation in
the ground-truth similarity scores.  The *diversified* strategy walks
the Yen enumeration in cost order and keeps a path only if its
similarity to every already-kept path is below a threshold ξ, producing
a compact set of genuinely different route options (Table 1/2 of the
poster show it improves every metric).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph import csr
from repro.graph.ksp import yen_path_generator
from repro.graph.network import RoadNetwork
from repro.graph.path import Path
from repro.graph.shortest_path import (
    CostFunction,
    length_cost,
    travel_time_cost,
)
from repro.graph.similarity import (
    SimilarityFunction,
    jaccard,
    time_weighted_jaccard,
    vertex_jaccard,
    weighted_jaccard,
)

__all__ = ["DiversifiedResult", "diversified_top_k"]

#: Built-in similarity functions with a kernel-native equivalent; the
#: value names the per-edge weighting the CSR-side filter applies.
#: Custom similarity callables are absent and fall back to the
#: Path-based filter.
_KERNEL_SIMILARITY: dict[SimilarityFunction, str] = {
    weighted_jaccard: "length",
    time_weighted_jaccard: "travel_time",
    jaccard: "count",
    vertex_jaccard: "vertex",
}

#: Upper bound on Yen paths examined per query before giving up on
#: filling all k diverse slots.  Guards against pathological queries
#: where nearly identical paths dominate the enumeration.
DEFAULT_EXAMINE_LIMIT = 500


@dataclass(frozen=True)
class DiversifiedResult:
    """Outcome of a diversified top-k query.

    ``paths`` holds the accepted diverse paths in cost order (the first
    is always the shortest path).  ``examined`` counts how many Yen
    paths were generated to find them — the cost the benchmarks report.
    ``exhausted`` is True when the enumeration ran out (or hit the
    examine limit) before ``k`` diverse paths were found.
    """

    paths: tuple[Path, ...]
    examined: int
    exhausted: bool

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)


def diversified_top_k(
    network: RoadNetwork,
    source: int,
    target: int,
    k: int,
    threshold: float = 0.6,
    cost: CostFunction = length_cost,
    similarity: SimilarityFunction = weighted_jaccard,
    examine_limit: int = DEFAULT_EXAMINE_LIMIT,
    backend: str | None = None,
) -> DiversifiedResult:
    """Greedy diversified top-k selection over the Yen enumeration.

    A path is accepted when ``similarity(path, kept) <= threshold`` for
    every previously kept path.  ``threshold = 1.0`` degenerates to plain
    top-k (every path accepted); small thresholds demand strong
    diversity and may exhaust the enumeration early.

    The underlying Yen enumeration runs on the selected routing backend
    (the CSR kernel by default); similarity filtering always operates on
    the :class:`Path` objects produced at the backend boundary.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    if examine_limit < k:
        raise ValueError(
            f"examine_limit ({examine_limit}) must be at least k ({k})"
        )

    mode = _KERNEL_SIMILARITY.get(similarity)
    if csr.resolve_backend(backend) == "csr" and mode is not None:
        return _kernel_diversified(network, source, target, k, threshold,
                                   cost, mode, examine_limit)

    kept: list[Path] = []
    examined = 0
    exhausted = True
    for path in yen_path_generator(network, source, target, cost,
                                   max_paths=examine_limit, backend=backend):
        examined += 1
        if all(similarity(path, existing) <= threshold for existing in kept):
            kept.append(path)
            if len(kept) == k:
                exhausted = False
                break
    return DiversifiedResult(paths=tuple(kept), examined=examined,
                             exhausted=exhausted)


def _kernel_diversified(
    network: RoadNetwork,
    source: int,
    target: int,
    k: int,
    threshold: float,
    cost: CostFunction | None,
    mode: str,
    examine_limit: int,
) -> DiversifiedResult:
    """Diversified selection with the similarity filter on CSR arrays.

    Rejected candidates dominate diversified enumeration (a tight
    threshold examines hundreds of Yen paths to keep a handful), and
    building a :class:`Path` per examined candidate — vertex/edge
    validation, length accumulation — costs more than the similarity
    check itself.  Here candidates stay lists of CSR indices, as the
    enumeration hands them over, while being filtered; similarity runs
    over CSR edge-position sets with the kernel's weight arrays, and
    only *accepted* paths are materialised, in cost order, at the end.
    Results match the Path-based filter exactly up to float summation
    order.
    """
    kernel = csr.csr_for(network)
    edge_positions = kernel._edge_positions
    if mode == "length":
        weights = kernel.edge_weights(length_cost)
    elif mode == "travel_time":
        weights = kernel.edge_weights(travel_time_cost)
    else:  # "count" (unweighted edges) and "vertex" need no weights
        weights = None

    kept: list[list[int]] = []
    kept_sigs: list[frozenset[int]] = []
    examined = 0
    exhausted = True
    for verts, _ in kernel.yen_indices(source, target, cost,
                                       max_paths=examine_limit):
        examined += 1
        if mode == "vertex":
            sig = frozenset(verts)
        else:
            sig = frozenset(edge_positions(verts))
        accept = True
        for other in kept_sigs:
            shared = sig & other
            if weights is None:
                union = len(sig) + len(other) - len(shared)
                similarity_value = len(shared) / union if union else 0.0
            else:
                union_weight = 0.0
                shared_weight = 0.0
                for position in sig | other:
                    weight = weights[position]
                    union_weight += weight
                    if position in shared:
                        shared_weight += weight
                similarity_value = (shared_weight / union_weight
                                    if union_weight else 0.0)
            if similarity_value > threshold:
                accept = False
                break
        if accept:
            kept_sigs.append(sig)
            kept.append(verts)
            if len(kept) == k:
                exhausted = False
                break
    ids = kernel.ids
    paths = tuple(Path(network, tuple(ids[i] for i in verts))
                  for verts in kept)
    return DiversifiedResult(paths=paths, examined=examined,
                             exhausted=exhausted)
