"""End-to-end experiment pipeline with stage caching.

The table/figure harnesses evaluate many (strategy, M, variant) cells on
the *same* network and fleet; this module materialises each shared stage
exactly once:

* network and fleet — shared by every cell;
* node2vec embeddings — one per embedding size M;
* labelled queries — one per candidate-generation configuration;
* trained models — one per full cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.trainer import Trainer, TrainingHistory
from repro.core.variants import build_pathrank
from repro.embedding.node2vec import Node2Vec, Node2VecConfig
from repro.errors import DataError
from repro.experiments.config import ExperimentConfig
from repro.graph.network import RoadNetwork
from repro.ranking.evaluation import evaluate_scorer
from repro.ranking.metrics import RankingMetrics
from repro.ranking.training_data import RankingQuery, TrainingDataConfig, generate_queries
from repro.rng import make_rng, spawn
from repro.trajectories.dataset import DatasetSplit, TrajectoryDataset
from repro.trajectories.generator import TrajectoryGenerator
from repro.trajectories.drivers import sample_population

__all__ = ["CellResult", "ExperimentPipeline"]


@dataclass(frozen=True)
class CellResult:
    """One experiment cell: a trained model and its test metrics."""

    config: ExperimentConfig
    metrics: RankingMetrics
    history: TrainingHistory

    @property
    def label(self) -> str:
        return (f"{self.config.variant.value} "
                f"{self.config.training_data.strategy.value} "
                f"M={self.config.embedding_dim}")


class ExperimentPipeline:
    """Caches shared stages across experiment cells.

    All cells produced by one pipeline share the network, the fleet and
    the train/test split, so differences between cells are attributable
    purely to the axis under study — mirroring how the paper varies one
    factor per table.
    """

    def __init__(self, base: ExperimentConfig) -> None:
        self.base = base
        self._network: RoadNetwork | None = None
        self._split: DatasetSplit | None = None
        self._embeddings: dict[int, np.ndarray] = {}
        self._queries: dict[tuple, tuple[list[RankingQuery], list[RankingQuery]]] = {}

    # ------------------------------------------------------------------
    # Shared stages
    # ------------------------------------------------------------------
    @property
    def network(self) -> RoadNetwork:
        if self._network is None:
            self._network = self.base.network.build()
        return self._network

    @property
    def split(self) -> DatasetSplit:
        if self._split is None:
            rng = make_rng(self.base.seed)
            population_rng, trip_rng, split_rng = spawn(rng, 3)
            population = sample_population(self.base.fleet.num_drivers,
                                           rng=population_rng)
            generator = TrajectoryGenerator(self.network, population,
                                            self.base.fleet)
            trips = generator.generate(rng=trip_rng)
            dataset = TrajectoryDataset(self.network, trips)
            self._split = dataset.split(
                train_fraction=self.base.train_fraction,
                validation_fraction=0.0,
                rng=split_rng,
            )
        return self._split

    def embedding(self, dim: int) -> np.ndarray:
        """node2vec matrix for embedding size ``dim`` (cached)."""
        if dim not in self._embeddings:
            rng = make_rng(self.base.seed + 1000 + dim)
            node2vec = Node2Vec(self.network, Node2VecConfig(dim=dim))
            self._embeddings[dim] = node2vec.fit(rng=rng)
        return self._embeddings[dim]

    def queries(
        self, data_config: TrainingDataConfig
    ) -> tuple[list[RankingQuery], list[RankingQuery]]:
        """(train, test) labelled queries for a candidate configuration."""
        key = (data_config.strategy, data_config.k,
               round(data_config.diversity_threshold, 6),
               data_config.examine_limit)
        if key not in self._queries:
            # One call over both halves: an OD shared by a train and a
            # test trip has its candidates enumerated once.
            split = self.split
            train_ids = {trip.trip_id for trip in split.train}
            train: list[RankingQuery] = []
            test: list[RankingQuery] = []
            for query in generate_queries(split.train + split.test,
                                          data_config):
                (train if query.trip_id in train_ids else test).append(query)
            if not train or not test:
                raise DataError(
                    "no usable ranking queries were generated for one half "
                    "of the split; check the candidate configuration "
                    "against the network size")
            self._queries[key] = (train, test)
        return self._queries[key]

    def eval_queries(self) -> list[RankingQuery]:
        """The shared evaluation set: test-trip candidates generated with
        the *base* configuration.

        Every cell is scored on this one set, so a table row isolates the
        effect of its training-data strategy instead of mixing it with a
        change of test-candidate distribution.
        """
        return self.queries(self.base.training_data)[1]

    # ------------------------------------------------------------------
    # Cells
    # ------------------------------------------------------------------
    def run_cell(self, config: ExperimentConfig) -> CellResult:
        """Train one (strategy, M, variant) cell; evaluate on the shared
        evaluation set."""
        train_queries, _ = self.queries(config.training_data)
        test_queries = self.eval_queries()
        rng = make_rng(config.seed)
        model_rng, trainer_rng, val_rng = spawn(rng, 3)

        # Hold out a slice of training queries for early stopping.
        order = val_rng.permutation(len(train_queries))
        n_val = max(1, len(train_queries) // 8)
        validation = [train_queries[int(i)] for i in order[:n_val]]
        training = [train_queries[int(i)] for i in order[n_val:]]

        model = build_pathrank(
            config.variant,
            num_vertices=self.network.num_vertices,
            embedding_dim=config.embedding_dim,
            embedding_matrix=self.embedding(config.embedding_dim),
            hidden_size=config.hidden_size,
            fc_hidden=config.fc_hidden,
            dropout=config.dropout,
            pooling=config.pooling,
            rng=model_rng,
        )
        trainer = Trainer(model, config.trainer, rng=trainer_rng)
        history = trainer.fit(training, validation)
        metrics = evaluate_scorer(model, test_queries)
        return CellResult(config=config, metrics=metrics, history=history)

    def test_queries(self, data_config: TrainingDataConfig) -> list[RankingQuery]:
        return self.queries(data_config)[1]

    def train_queries(self, data_config: TrainingDataConfig) -> list[RankingQuery]:
        return self.queries(data_config)[0]
