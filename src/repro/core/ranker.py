"""PathRankRanker — the user-facing end-to-end API.

This is the class a downstream routing service would use::

    ranker = PathRankRanker(network, RankerConfig(embedding_dim=128))
    ranker.fit(trips, rng=0)
    for path, score in ranker.rank(source, target):
        ...

``fit`` runs the full paper pipeline: node2vec pre-training, candidate
generation for every training trajectory (TkDI or D-TkDI), ground-truth
labelling with weighted Jaccard, and PathRank training.  ``rank``
generates candidates for a new (source, destination) query with the same
strategy and returns them sorted by estimated driver preference.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path as FilePath

import numpy as np

from repro.core.model import PathRank
from repro.core.trainer import Trainer, TrainerConfig, TrainingHistory
from repro.core.variants import Variant, build_pathrank
from repro.embedding.node2vec import Node2Vec, Node2VecConfig
from repro.errors import ConfigError, TrainingError
from repro.graph.diversified import diversified_top_k
from repro.graph.ksp import yen_k_shortest_paths
from repro.graph.network import RoadNetwork
from repro.graph.path import Path
from repro.nn.serialization import load_state, save_state
from repro.ranking.training_data import (
    RankingQuery,
    Strategy,
    TrainingDataConfig,
    generate_queries,
)
from repro.rng import RngLike, make_rng, spawn
from repro.trajectories.generator import Trip

__all__ = ["RankerConfig", "PathRankRanker", "generate_candidates",
           "rank_paths"]


def generate_candidates(
    network: RoadNetwork,
    source: int,
    target: int,
    config: TrainingDataConfig,
) -> list[Path]:
    """Candidate paths for one (source, target) query.

    This is the model-free half of ranking: the same TkDI / D-TkDI
    enumeration used to build training data, exposed as a pure function
    so callers (e.g. the serving layer) can cache its output per query
    independently of scoring.  The enumeration runs on the configured
    routing backend (the CSR kernel by default — see
    :mod:`repro.graph.csr`); results are plain :class:`Path` objects
    either way.
    """
    if config.strategy is Strategy.TKDI:
        return yen_k_shortest_paths(network, source, target, config.k)
    result = diversified_top_k(
        network,
        source,
        target,
        config.k,
        threshold=config.diversity_threshold,
        examine_limit=config.examine_limit,
    )
    return list(result.paths)


def rank_paths(paths: Sequence[Path],
               scores) -> list[tuple[Path, float]]:
    """Order candidates by score, best first (stable on ties).

    The assembly half of ranking, shared by :meth:`PathRankRanker.rank`
    and the serving pipeline's response stage: given candidates and
    their scores (any sequence or array), returns ``(path, score)``
    pairs sorted best-first, breaking ties by generation order so every
    front door ranks identically.
    """
    values = scores.tolist() if hasattr(scores, "tolist") else list(scores)
    if len(paths) != len(values):
        raise ValueError(
            f"paths ({len(paths)}) and scores ({len(values)}) disagree"
        )
    order = sorted(range(len(values)), key=lambda i: -values[i])
    return [(paths[i], values[i]) for i in order]


@dataclass(frozen=True)
class RankerConfig:
    """Everything the end-to-end pipeline needs, in one object."""

    variant: Variant = Variant.PR_A2
    embedding_dim: int = 64
    hidden_size: int = 64
    fc_hidden: int = 32
    bidirectional: bool = True
    dropout: float = 0.0
    pooling: str = "mean"
    training_data: TrainingDataConfig = field(default_factory=TrainingDataConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    node2vec: Node2VecConfig | None = None
    validation_fraction: float = 0.15

    def __post_init__(self) -> None:
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError(
                f"validation_fraction must be in [0, 1), got {self.validation_fraction}"
            )

    def resolved_node2vec(self) -> Node2VecConfig:
        if self.node2vec is not None:
            if self.node2vec.dim != self.embedding_dim:
                raise ConfigError(
                    f"node2vec dim {self.node2vec.dim} differs from "
                    f"embedding_dim {self.embedding_dim}"
                )
            return self.node2vec
        return Node2VecConfig(dim=self.embedding_dim)


class PathRankRanker:
    """Trainable path-ranking service over one road network."""

    def __init__(self, network: RoadNetwork, config: RankerConfig | None = None) -> None:
        ids = network.vertex_ids()
        if sorted(ids) != list(range(len(ids))):
            raise ConfigError(
                "PathRankRanker requires dense vertex ids 0..n-1; call "
                "network.relabelled() first"
            )
        self.network = network
        self.config = config or RankerConfig()
        self.config.resolved_node2vec()  # fail fast on inconsistent dims
        self.model: PathRank | None = None
        self.embedding_matrix: np.ndarray | None = None
        self.history: TrainingHistory | None = None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, trips: Sequence[Trip], rng: RngLike = None) -> "PathRankRanker":
        """Run the full pipeline on map-matched trips."""
        if not trips:
            raise TrainingError("fit() needs at least one trip")
        generator = make_rng(rng)
        n2v_rng, model_rng, split_rng, train_rng = spawn(generator, 4)

        node2vec = Node2Vec(self.network, self.config.resolved_node2vec())
        self.embedding_matrix = node2vec.fit(rng=n2v_rng)

        queries = generate_queries(trips, self.config.training_data)
        train_queries, validation_queries = self._split_queries(queries, split_rng)

        self.model = build_pathrank(
            self.config.variant,
            num_vertices=self.network.num_vertices,
            embedding_dim=self.config.embedding_dim,
            embedding_matrix=self.embedding_matrix,
            hidden_size=self.config.hidden_size,
            fc_hidden=self.config.fc_hidden,
            bidirectional=self.config.bidirectional,
            dropout=self.config.dropout,
            pooling=self.config.pooling,
            rng=model_rng,
        )
        trainer = Trainer(self.model, self.config.trainer, rng=train_rng)
        self.history = trainer.fit(train_queries, validation_queries)
        return self

    def _split_queries(
        self, queries: list[RankingQuery], rng: np.random.Generator
    ) -> tuple[list[RankingQuery], list[RankingQuery] | None]:
        fraction = self.config.validation_fraction
        if fraction == 0.0 or len(queries) < 4:
            return queries, None
        order = rng.permutation(len(queries))
        n_val = max(1, int(round(fraction * len(queries))))
        validation = [queries[int(i)] for i in order[:n_val]]
        training = [queries[int(i)] for i in order[n_val:]]
        return training, validation

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _require_model(self) -> PathRank:
        if self.model is None:
            raise TrainingError("fit() or load() must run before inference")
        return self.model

    def generate_candidates(self, source: int, target: int) -> list[Path]:
        """Candidate paths for a query, using the configured strategy.

        The first of the two ranking steps; model-free, so its output is
        cacheable per ``(source, target, strategy, k)``.
        """
        return generate_candidates(self.network, source, target,
                                   self.config.training_data)

    # Historical name for generate_candidates, kept for existing callers.
    def candidates(self, source: int, target: int) -> list[Path]:
        return self.generate_candidates(source, target)

    def score_candidates(self, paths: Sequence[Path],
                         backend: str | None = None) -> np.ndarray:
        """Estimated preference scores for candidate paths (unsorted).

        The second ranking step; batched callers can concatenate the
        candidates of many queries and score them in one forward pass.
        ``backend="module"`` runs the reference forward instead of the
        fused kernel (see :mod:`repro.nn.fused`).
        """
        return self._require_model().score_paths(paths, backend=backend)

    def score_paths(self, paths: Sequence[Path],
                    backend: str | None = None) -> np.ndarray:
        return self.score_candidates(paths, backend=backend)

    def score_query(self, query: RankingQuery) -> list[float]:
        return self._require_model().score_query(query)

    def rank(self, source: int, target: int) -> list[tuple[Path, float]]:
        """Candidates sorted by estimated driver preference (best first)."""
        self._require_model()
        paths = self.generate_candidates(source, target)
        if not paths:
            return []
        return rank_paths(paths, self.score_candidates(paths))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | FilePath) -> None:
        """Persist model weights plus the architecture metadata."""
        model = self._require_model()
        metadata = {
            "variant": self.config.variant.value,
            "embedding_dim": self.config.embedding_dim,
            "hidden_size": self.config.hidden_size,
            "fc_hidden": self.config.fc_hidden,
            "bidirectional": self.config.bidirectional,
            "pooling": self.config.pooling,
            "num_vertices": self.network.num_vertices,
        }
        save_state(model.state_dict(), path, metadata=metadata)

    def load(self, path: str | FilePath) -> "PathRankRanker":
        """Restore a model saved by :meth:`save` (same network)."""
        state, metadata = load_state(path)
        if metadata.get("num_vertices") != self.network.num_vertices:
            raise ConfigError(
                f"checkpoint was trained on {metadata.get('num_vertices')} vertices, "
                f"this network has {self.network.num_vertices}"
            )
        self.model = build_pathrank(
            str(metadata["variant"]),
            num_vertices=self.network.num_vertices,
            embedding_dim=int(metadata["embedding_dim"]),
            hidden_size=int(metadata["hidden_size"]),
            fc_hidden=int(metadata["fc_hidden"]),
            bidirectional=bool(metadata["bidirectional"]),
            pooling=str(metadata.get("pooling", "mean")),
        )
        self.model.load_state_dict(state)
        self.model.eval()
        return self
