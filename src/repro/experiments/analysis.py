"""Candidate-set analysis: why D-TkDI training data is better.

The paper's central data insight is that plain top-k shortest paths are
near-duplicates, so a regression model trained on them sees almost no
variation in ground-truth scores.  This module measures that claim
directly: pairwise candidate diversity, ground-truth score dispersion,
trajectory coverage, and route optimality (stretch) per strategy.

The stretch statistics need the true shortest-path distance of every
query, which would be one Dijkstra per query if computed naively.
Instead the sweeps are batched: all unique query sources go through a
single :meth:`~repro.graph.csr.CSRGraph.multi_source` call (one scipy
``dijkstra`` dispatch), the same batched entry point the ALT landmark
table builds use.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.graph.csr import csr_for
from repro.graph.similarity import SimilarityFunction, weighted_jaccard
from repro.ranking.training_data import RankingQuery

__all__ = ["CandidateSetStats", "analyse_queries", "compare_strategies",
           "query_shortest_distances"]


@dataclass(frozen=True)
class CandidateSetStats:
    """Aggregate statistics of one strategy's candidate sets."""

    num_queries: int
    mean_candidates: float
    #: mean pairwise weighted-Jaccard between candidates of one query —
    #: low = diverse training data (the D-TkDI design goal).
    mean_pairwise_similarity: float
    #: standard deviation of ground-truth scores within a query — the
    #: label variation a regression model can actually learn from.
    mean_score_spread: float
    #: mean of each query's best candidate score — how well the
    #: candidate set covers what the driver actually drove.
    mean_best_score: float
    #: fraction of queries whose best candidate reaches >= 0.8 overlap.
    coverage_at_80: float
    #: mean length stretch (candidate length / shortest-path length)
    #: over *all* candidates — how far from optimal the set ranges.
    mean_candidate_stretch: float
    #: mean stretch of each query's best-scoring candidate — the detour
    #: cost of recommending what the driver actually prefers.
    mean_best_stretch: float

    def as_row(self) -> list[float]:
        return [self.mean_candidates, self.mean_pairwise_similarity,
                self.mean_score_spread, self.mean_best_score,
                self.coverage_at_80, self.mean_candidate_stretch,
                self.mean_best_stretch]


def query_shortest_distances(queries: Sequence[RankingQuery]) -> np.ndarray:
    """Shortest-path length of every query, in one batched SSSP sweep.

    All unique sources share a single
    :meth:`~repro.graph.csr.CSRGraph.multi_source` call; the per-query
    distance is then a table lookup.  Unreachable targets yield
    ``numpy.inf`` (candidate generation normally guarantees
    reachability).
    """
    if not queries:
        return np.zeros(0)
    network = queries[0].trajectory_path.network
    kernel = csr_for(network)
    sources = sorted({query.source for query in queries})
    rows = {source: i for i, source in enumerate(sources)}
    table = kernel.multi_source(sources)
    return np.array([
        table[rows[query.source], kernel.index_of(query.target)]
        for query in queries
    ])


def analyse_queries(
    queries: Sequence[RankingQuery],
    similarity: SimilarityFunction = weighted_jaccard,
) -> CandidateSetStats:
    """Compute :class:`CandidateSetStats` for a query set."""
    if not queries:
        raise ValueError("cannot analyse an empty query set")
    pairwise: list[float] = []
    spreads: list[float] = []
    bests: list[float] = []
    sizes: list[int] = []
    candidate_stretches: list[float] = []
    best_stretches: list[float] = []
    optimal = query_shortest_distances(queries)
    for query, shortest in zip(queries, optimal):
        sizes.append(len(query))
        scores = np.array(query.scores())
        spreads.append(float(scores.std()))
        bests.append(float(scores.max()))
        for a, b in itertools.combinations(query.paths(), 2):
            pairwise.append(similarity(a, b))
        if np.isfinite(shortest) and shortest > 0.0:
            stretches = [candidate.path.length / shortest
                         for candidate in query.candidates]
            candidate_stretches.extend(stretches)
            best = query.best_candidate()
            best_stretches.append(best.path.length / shortest)
    return CandidateSetStats(
        num_queries=len(queries),
        mean_candidates=float(np.mean(sizes)),
        mean_pairwise_similarity=float(np.mean(pairwise)) if pairwise else 1.0,
        mean_score_spread=float(np.mean(spreads)),
        mean_best_score=float(np.mean(bests)),
        coverage_at_80=float(np.mean([b >= 0.8 for b in bests])),
        mean_candidate_stretch=(float(np.mean(candidate_stretches))
                                if candidate_stretches else 1.0),
        mean_best_stretch=(float(np.mean(best_stretches))
                           if best_stretches else 1.0),
    )


def compare_strategies(
    queries_by_strategy: dict[str, Sequence[RankingQuery]],
) -> dict[str, CandidateSetStats]:
    """Per-strategy stats table (used by the data-quality benchmark)."""
    if not queries_by_strategy:
        raise ValueError("no strategies to compare")
    return {name: analyse_queries(queries)
            for name, queries in queries_by_strategy.items()}
