"""Training-data generation: the TkDI and D-TkDI strategies.

For every map-matched trajectory path ``P_T`` (source ``s``, destination
``d``) the paper builds a compact labelled path set:

* **TkDI** — the top-``k`` shortest paths from ``s`` to ``d``;
* **D-TkDI** — the *diversified* top-``k`` shortest paths (pairwise
  similarity below a threshold ξ).

Each candidate ``P`` is labelled with ``WeightedJaccard(P, P_T)`` — its
ground-truth ranking score.  A trajectory whose candidate generation
fails (e.g. the network cannot produce ``k`` diverse paths) still yields
a query with however many candidates were found.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import DataError
from repro.graph.diversified import diversified_top_k
from repro.graph.ksp import yen_k_shortest_paths
from repro.graph.path import Path
from repro.graph.shortest_path import CostFunction, length_cost
from repro.graph.similarity import SimilarityFunction, weighted_jaccard
from repro.trajectories.generator import Trip

__all__ = ["Strategy", "RankedCandidate", "RankingQuery", "TrainingDataConfig",
           "generate_queries"]


class Strategy(enum.Enum):
    """Candidate-generation strategy (the rows of Tables 1 and 2)."""

    TKDI = "TkDI"
    D_TKDI = "D-TkDI"

    @classmethod
    def from_name(cls, name: str) -> "Strategy":
        for member in cls:
            if member.value.lower() == name.lower():
                return member
        known = ", ".join(m.value for m in cls)
        raise KeyError(f"unknown strategy {name!r}; known: {known}")


@dataclass(frozen=True)
class RankedCandidate:
    """One candidate path with its ground-truth ranking score."""

    path: Path
    score: float
    generation_rank: int  # position in the enumeration order (0 = shortest)

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0 + 1e-9:
            raise DataError(f"score must be in [0, 1], got {self.score}")


@dataclass(frozen=True)
class RankingQuery:
    """One training/evaluation unit: a trajectory and its candidates."""

    trip_id: int
    driver_id: int
    trajectory_path: Path
    candidates: tuple[RankedCandidate, ...]

    @property
    def source(self) -> int:
        return self.trajectory_path.source

    @property
    def target(self) -> int:
        return self.trajectory_path.target

    def __len__(self) -> int:
        return len(self.candidates)

    def paths(self) -> list[Path]:
        return [candidate.path for candidate in self.candidates]

    def scores(self) -> list[float]:
        return [candidate.score for candidate in self.candidates]

    def best_candidate(self) -> RankedCandidate:
        """The candidate most similar to the driver's actual path."""
        return max(self.candidates, key=lambda c: c.score)


@dataclass(frozen=True)
class TrainingDataConfig:
    """Parameters of candidate generation.

    ``k`` is the candidate-set size; ``diversity_threshold`` (ξ) only
    applies to D-TkDI; ``examine_limit`` bounds the Yen enumeration the
    diversified strategy may walk per query.
    """

    strategy: Strategy = Strategy.D_TKDI
    k: int = 5
    diversity_threshold: float = 0.8
    examine_limit: int = 200

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0.0 <= self.diversity_threshold <= 1.0:
            raise ValueError(
                f"diversity_threshold must be in [0, 1], got {self.diversity_threshold}"
            )
        if self.examine_limit < self.k:
            raise ValueError(
                f"examine_limit ({self.examine_limit}) must be >= k ({self.k})"
            )


def _candidates_for(
    trip: Trip,
    config: TrainingDataConfig,
    cost: CostFunction,
    similarity: SimilarityFunction,
) -> list[Path]:
    network = trip.path.network
    if config.strategy is Strategy.TKDI:
        return yen_k_shortest_paths(network, trip.source, trip.target, config.k,
                                    cost=cost)
    result = diversified_top_k(
        network,
        trip.source,
        trip.target,
        config.k,
        threshold=config.diversity_threshold,
        cost=cost,
        similarity=similarity,
        examine_limit=config.examine_limit,
    )
    return list(result.paths)


def generate_queries(
    trips: Sequence[Trip],
    config: TrainingDataConfig | None = None,
    cost: CostFunction = length_cost,
    similarity: SimilarityFunction = weighted_jaccard,
    min_candidates: int = 2,
) -> list[RankingQuery]:
    """Build labelled ranking queries for ``trips``.

    Candidates are enumerated once per distinct OD (network, source,
    target) in a call and shared by every trip with that OD; each trip
    labels them against its own path.  Queries ending up with fewer than
    ``min_candidates`` candidates are dropped (rank correlations are
    undefined on singletons), mirroring the paper's preprocessing.
    """
    if config is None:
        config = TrainingDataConfig()
    if min_candidates < 1:
        raise ValueError(f"min_candidates must be >= 1, got {min_candidates}")

    # Keyed by network identity: the trips hold their networks for the
    # whole call, so no id is reused while the dict lives.
    candidate_sets: dict[tuple[int, int, int], list[Path]] = {}
    queries: list[RankingQuery] = []
    for trip in trips:
        key = (id(trip.path.network), trip.source, trip.target)
        paths = candidate_sets.get(key)
        if paths is None:
            paths = candidate_sets[key] = _candidates_for(trip, config, cost,
                                                          similarity)
        if len(paths) < min_candidates:
            continue
        candidates = tuple(
            RankedCandidate(
                path=path,
                score=similarity(path, trip.path),
                generation_rank=rank,
            )
            for rank, path in enumerate(paths)
        )
        queries.append(
            RankingQuery(
                trip_id=trip.trip_id,
                driver_id=trip.driver_id,
                trajectory_path=trip.path,
                candidates=candidates,
            )
        )
    if not queries:
        raise DataError(
            "no usable ranking queries were generated; check the candidate "
            "configuration against the network size"
        )
    return queries
