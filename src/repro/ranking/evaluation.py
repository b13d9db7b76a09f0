"""Uniform evaluation harness for scorers (PathRank and baselines).

A *scorer* is anything with ``score_query(query) -> list[float]``; this
module runs a scorer over a query set and reduces the results to the
:class:`~repro.ranking.metrics.RankingMetrics` the paper's tables
report.

PathRank scorers run on the fused numpy kernel (:mod:`repro.nn.fused`);
auditing metric-level parity against the reference forward means
scoring with ``PathRank.score_paths(paths, backend="module")``.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Protocol

from repro.ranking.metrics import RankingMetrics, evaluate_predictions
from repro.ranking.training_data import RankingQuery

__all__ = ["Scorer", "evaluate_scorer"]


class Scorer(Protocol):
    """Structural interface shared by PathRank and all baselines."""

    def score_query(self, query: RankingQuery) -> list[float]:
        ...


def evaluate_scorer(
    scorer: Scorer, queries: Sequence[RankingQuery]
) -> RankingMetrics:
    """Score every query and aggregate the paper's four metrics."""
    if not queries:
        raise ValueError("cannot evaluate on an empty query set")
    grouped_true: list[list[float]] = []
    grouped_pred: list[list[float]] = []
    for query in queries:
        predictions = scorer.score_query(query)
        if len(predictions) != len(query):
            raise ValueError(
                f"scorer returned {len(predictions)} scores for a query with "
                f"{len(query)} candidates"
            )
        grouped_true.append(query.scores())
        grouped_pred.append(list(predictions))
    return evaluate_predictions(grouped_true, grouped_pred)
