"""node2vec over road networks — PathRank's spatial network embedding.

The paper initialises the vertex-embedding matrix ``B`` with node2vec so
the model starts from a representation that already encodes road-network
topology (vertices on the same corridor embed nearby).  This module ties
together the biased walks and the SGNS trainer and returns the matrix in
dense vertex-id order, ready for :class:`repro.nn.Embedding`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.embedding.skipgram import SkipGramConfig, SkipGramModel
from repro.embedding.walks import BiasedWalkGenerator
from repro.graph.network import RoadNetwork
from repro.rng import RngLike, make_rng, spawn

__all__ = ["Node2VecConfig", "Node2Vec"]


@dataclass(frozen=True)
class Node2VecConfig:
    """Walk and SGNS hyper-parameters.

    The defaults mirror the node2vec paper (p=q=1 reduces to DeepWalk;
    the experiment configs use them unchanged, with ``dim`` set to the
    table's embedding size M).
    """

    dim: int = 64
    num_walks: int = 10
    walk_length: int = 40
    window: int = 5
    p: float = 1.0
    q: float = 1.0
    negatives: int = 5
    epochs: int = 3
    learning_rate: float = 0.025
    weighted_walks: bool = False

    def __post_init__(self) -> None:
        if self.num_walks < 1 or self.walk_length < 2:
            raise ValueError(
                f"need num_walks >= 1 and walk_length >= 2, got "
                f"({self.num_walks}, {self.walk_length})"
            )
        if not (0 < self.p < math.inf and 0 < self.q < math.inf):
            raise ValueError(
                f"p and q must be positive and finite, got ({self.p}, {self.q})")
        self.skipgram()  # validates the SGNS fields

    def skipgram(self) -> SkipGramConfig:
        return SkipGramConfig(
            dim=self.dim,
            window=self.window,
            negatives=self.negatives,
            epochs=self.epochs,
            learning_rate=self.learning_rate,
        )


class Node2Vec:
    """End-to-end node2vec: walks, SGNS, and the resulting matrix."""

    def __init__(self, network: RoadNetwork, config: Node2VecConfig | None = None) -> None:
        ids = network.vertex_ids()
        if sorted(ids) != list(range(len(ids))):
            raise ValueError(
                "node2vec requires dense vertex ids 0..n-1; call "
                "network.relabelled() first"
            )
        self.network = network
        self.config = config or Node2VecConfig()
        self.model: SkipGramModel | None = None
        self.losses: list[float] = []

    def fit(self, rng: RngLike = None) -> np.ndarray:
        """Run walks + SGNS; returns the ``(n, dim)`` embedding matrix."""
        generator = make_rng(rng)
        walk_rng, init_rng, train_rng = spawn(generator, 3)
        walker = BiasedWalkGenerator(
            self.network,
            p=self.config.p,
            q=self.config.q,
            weighted=self.config.weighted_walks,
        )
        walks = walker.generate(self.config.num_walks, self.config.walk_length,
                                rng=walk_rng)
        self.model = SkipGramModel(self.network.num_vertices, self.config.skipgram(),
                                   rng=init_rng)
        self.losses = self.model.train(walks, rng=train_rng)
        return self.embedding_matrix

    @property
    def embedding_matrix(self) -> np.ndarray:
        """The trained input-vector matrix (vertices in id order)."""
        if self.model is None:
            raise RuntimeError("call fit() before reading the embedding matrix")
        return self.model.vectors
