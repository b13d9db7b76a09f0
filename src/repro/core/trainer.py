"""Training loop for PathRank models.

The paper frames ranking as *regression*: every candidate is scored
against its weighted-Jaccard ground truth with MSE.  This trainer keeps
that objective and adds a **within-query pairwise ranking term**:
batches are whole queries, and for every candidate pair of a query whose
true scores differ by at least ``rank_margin``, a logistic pairwise loss
pushes the predicted scores into the true order.

The pairwise term exists because of a substrate difference documented in
DESIGN.md: candidates for one query share both endpoints and most of
their mileage, so with a purely pointwise loss the gradient signal is
dominated by between-query calibration while the evaluation metrics
(Kendall τ / Spearman ρ) only measure *within-query* order.  Setting
``rank_weight = 0`` recovers the paper's pure regression objective (the
ablation benchmark compares both).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.batching import bucketed_batch_indices, encode_paths
from repro.core.model import PathRank
from repro.core.variants import PathRankMultiTask
from repro.errors import TrainingError
from repro.nn import Adam, MSELoss, Tensor, clip_grad_norm, no_grad
from repro.ranking.training_data import RankingQuery
from repro.rng import RngLike, make_rng

__all__ = ["TrainerConfig", "TrainingHistory", "Trainer", "flatten_queries"]


@dataclass(frozen=True)
class TrainerConfig:
    """Hyper-parameters of the optimisation loop."""

    epochs: int = 60
    queries_per_batch: int = 16
    learning_rate: float = 3e-3
    weight_decay: float = 0.0
    clip_norm: float = 5.0
    patience: int = 12
    min_delta: float = 1e-5
    rank_weight: float = 1.0     # weight of the pairwise within-query term
    rank_margin: float = 0.05    # min true-score gap for a training pair
    rank_scale: float = 8.0      # logistic sharpness on predicted gaps
    aux_weight: float = 0.3      # beta for the multi-task variant
    #: Batch queries of similar candidate length together (the same
    #: bucketed-padding idiom inference uses), so each batch pads to
    #: roughly its own maximum instead of the epoch-wide one.  Every
    #: query is still visited once per epoch in a shuffled batch order,
    #: but batch composition correlates with trip length, which trades
    #: pointwise calibration (MAE slightly worse) for ranking quality
    #: (tau slightly better) on small corpora — hence opt-in: flip it on
    #: when epoch wall-clock on long-path corpora is what matters.
    bucket_by_length: bool = False

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.queries_per_batch < 1:
            raise ValueError(
                f"queries_per_batch must be >= 1, got {self.queries_per_batch}"
            )
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.clip_norm <= 0:
            raise ValueError(f"clip_norm must be positive, got {self.clip_norm}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.rank_weight < 0 or self.aux_weight < 0:
            raise ValueError("loss weights must be non-negative")
        if not 0.0 <= self.rank_margin <= 1.0:
            raise ValueError(f"rank_margin must be in [0, 1], got {self.rank_margin}")
        if self.rank_scale <= 0:
            raise ValueError(f"rank_scale must be positive, got {self.rank_scale}")


@dataclass
class TrainingHistory:
    """Per-epoch records for analysis and the convergence tests."""

    train_loss: list[float] = field(default_factory=list)
    validation_loss: list[float] = field(default_factory=list)
    gradient_norm: list[float] = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)


def flatten_queries(
    queries: Sequence[RankingQuery], with_aux: bool = False
):
    """Per-query training material.

    Returns a list of ``(paths, targets, pair_indices)`` triples, one per
    query: ``targets`` is ``(n,)`` scores or ``(n, 3)`` with auxiliary
    columns (similarity, length ratio, time ratio); ``pair_indices`` is a
    ``(p, 2)`` int array of (better, worse) candidate positions.
    """
    if not queries:
        raise TrainingError("no queries to train on")
    material = []
    for query in queries:
        lengths = [c.path.length for c in query.candidates]
        times = [c.path.travel_time for c in query.candidates]
        best_length, best_time = min(lengths), min(times)
        paths = query.paths()
        scores = np.array(query.scores())
        if with_aux:
            aux = np.column_stack([
                scores,
                [best_length / c.path.length for c in query.candidates],
                [best_time / c.path.travel_time for c in query.candidates],
            ])
            targets = aux
        else:
            targets = scores
        material.append((paths, targets, scores))
    return material


def _pairs_within(scores: np.ndarray, margin: float) -> np.ndarray:
    """(better, worse) index pairs with a true-score gap above margin."""
    better, worse = [], []
    n = scores.size
    for i in range(n):
        for j in range(n):
            if scores[i] > scores[j] + margin:
                better.append(i)
                worse.append(j)
    if not better:
        return np.zeros((0, 2), dtype=np.int64)
    return np.column_stack([better, worse]).astype(np.int64)


class Trainer:
    """Optimises a PathRank model on ranking queries."""

    def __init__(
        self,
        model: PathRank,
        config: TrainerConfig | None = None,
        rng: RngLike = None,
    ) -> None:
        self.model = model
        self.config = config or TrainerConfig()
        self._rng = make_rng(rng)
        self._loss = MSELoss()
        self.is_multitask = isinstance(model, PathRankMultiTask)

    # ------------------------------------------------------------------
    # Loss evaluation
    # ------------------------------------------------------------------
    def _query_batch_loss(self, batch) -> Tensor:
        """Combined loss over a list of query materials."""
        config = self.config
        paths = [p for qpaths, _, _ in batch for p in qpaths]
        vertex_ids, mask = encode_paths(paths)

        if self.is_multitask:
            predictions, aux_pred = self.model.forward_with_aux(vertex_ids, mask)
            targets = np.vstack([t for _, t, _ in batch])
            loss = self._loss(predictions, Tensor(targets[:, 0]))
            loss = loss + config.aux_weight * self._loss(aux_pred,
                                                         Tensor(targets[:, 1:]))
        else:
            predictions = self.model(vertex_ids, mask)
            targets = np.concatenate([t for _, t, _ in batch])
            loss = self._loss(predictions, Tensor(targets))

        if config.rank_weight > 0:
            better_idx: list[int] = []
            worse_idx: list[int] = []
            offset = 0
            for qpaths, _, scores in batch:
                pairs = _pairs_within(scores, config.rank_margin)
                if pairs.size:
                    better_idx.extend((pairs[:, 0] + offset).tolist())
                    worse_idx.extend((pairs[:, 1] + offset).tolist())
                offset += len(qpaths)
            if better_idx:
                gap = predictions[np.asarray(better_idx)] \
                    - predictions[np.asarray(worse_idx)]
                # Logistic pairwise loss: -log sigmoid(scale * gap).
                margin_logit = (gap * config.rank_scale).sigmoid()
                pair_loss = (0.0 - margin_logit.clip(1e-9, 1.0).log()).mean()
                loss = loss + config.rank_weight * pair_loss
        return loss

    def _dataset_loss(self, material) -> float:
        """Mean per-query loss in eval mode (used for validation)."""
        was_training = self.model.training
        self.model.eval()
        try:
            total = 0.0
            for query_material in material:
                with no_grad():
                    loss = self._query_batch_loss([query_material])
                total += loss.item()
            return total / len(material)
        finally:
            if was_training:
                self.model.train()

    # ------------------------------------------------------------------
    # Fit
    # ------------------------------------------------------------------
    def fit(
        self,
        train_queries: Sequence[RankingQuery],
        validation_queries: Sequence[RankingQuery] | None = None,
    ) -> TrainingHistory:
        """Train until convergence or the epoch budget.

        Early stopping watches the validation loss when validation
        queries are provided, the training loss otherwise; the weights of
        the best epoch are restored before returning.
        """
        config = self.config
        material = flatten_queries(train_queries, with_aux=self.is_multitask)
        validation_material = None
        if validation_queries:
            validation_material = flatten_queries(validation_queries,
                                                  with_aux=self.is_multitask)

        parameters = self.model.parameters(trainable_only=True)
        if not parameters:
            raise TrainingError("the model has no trainable parameters")
        optimizer = Adam(parameters, lr=config.learning_rate,
                         weight_decay=config.weight_decay)

        history = TrainingHistory()
        best_loss = np.inf
        best_state: dict[str, np.ndarray] | None = None
        stale_epochs = 0

        self.model.train()
        order = np.arange(len(material))
        # A query's padded width is its longest candidate; batching
        # similar-width queries together keeps training padding
        # per-bucket, exactly like bucketed inference batches.
        query_widths = [max(path.num_vertices for path in qpaths)
                        for qpaths, _, _ in material]
        for epoch in range(config.epochs):
            if config.bucket_by_length:
                batch_indices = bucketed_batch_indices(
                    query_widths, config.queries_per_batch, rng=self._rng)
            else:
                self._rng.shuffle(order)
                batch_indices = [
                    order[start:start + config.queries_per_batch]
                    for start in range(0, len(order),
                                       config.queries_per_batch)
                ]
            epoch_losses: list[float] = []
            epoch_sizes: list[int] = []
            epoch_norms: list[float] = []
            for index in batch_indices:
                batch = [material[int(i)] for i in index]
                optimizer.zero_grad()
                loss = self._query_batch_loss(batch)
                loss.backward()
                epoch_norms.append(clip_grad_norm(parameters, config.clip_norm))
                optimizer.step()
                epoch_losses.append(loss.item())
                epoch_sizes.append(len(batch))
            # Weighted by queries per batch: a short tail batch counts
            # for the queries it holds, not as much as a full one (this
            # number also picks the best epoch and drives early stopping).
            history.train_loss.append(
                float(np.average(epoch_losses, weights=epoch_sizes)))
            history.gradient_norm.append(float(np.mean(epoch_norms)))

            if validation_material is not None:
                watched = self._dataset_loss(validation_material)
                history.validation_loss.append(watched)
            else:
                watched = history.train_loss[-1]

            if watched < best_loss - config.min_delta:
                best_loss = watched
                best_state = self.model.state_dict()
                history.best_epoch = epoch
                stale_epochs = 0
            else:
                stale_epochs += 1
                if stale_epochs >= config.patience:
                    history.stopped_early = True
                    break

        if best_state is not None:
            self.model.load_state_dict(best_state)
        self.model.eval()
        return history
