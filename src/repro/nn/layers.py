"""Feed-forward layers: Linear, Embedding, Dropout."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor
from repro.rng import RngLike, make_rng

__all__ = ["Linear", "Embedding", "Dropout"]


class Linear(Module):
    """Affine map ``y = x W + b`` with Xavier-uniform initialisation."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: RngLike = None) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError(f"layer sizes must be positive, got ({in_features}, {out_features})")
        generator = make_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform(generator, (in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_features:
            raise ShapeError(
                f"Linear expected last dimension {self.in_features}, got shape {x.shape}"
            )
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table of shape ``(num_embeddings, dim)``.

    This is PathRank's vertex-embedding matrix ``B``.  It can be
    initialised from a pre-trained node2vec matrix and optionally frozen
    (PR-A1) or left trainable (PR-A2).
    """

    def __init__(self, num_embeddings: int, dim: int, rng: RngLike = None) -> None:
        super().__init__()
        if num_embeddings <= 0 or dim <= 0:
            raise ValueError(
                f"embedding sizes must be positive, got ({num_embeddings}, {dim})"
            )
        generator = make_rng(rng)
        self.num_embeddings = num_embeddings
        self.dim = dim
        bound = 1.0 / np.sqrt(dim)
        self.weight = Parameter(init.uniform(generator, (num_embeddings, dim), -bound, bound))

    @classmethod
    def from_pretrained(cls, matrix: np.ndarray, trainable: bool = True) -> "Embedding":
        """Build an embedding whose rows are a pre-trained matrix."""
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ShapeError(f"pretrained matrix must be 2-D, got shape {matrix.shape}")
        layer = cls(matrix.shape[0], matrix.shape[1])
        layer.weight.data = matrix.copy()
        if not trainable:
            layer.weight.freeze()
        return layer

    def forward(self, indices: np.ndarray) -> Tensor:
        return F.embedding_lookup(self.weight, indices)


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, rate: float, rng: RngLike = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = make_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, self._rng, training=self.training)
