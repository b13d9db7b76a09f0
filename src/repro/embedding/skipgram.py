"""Skip-gram with negative sampling (SGNS), vectorised in numpy.

This is the word2vec objective node2vec trains: maximise
``log σ(u_c · v_w)`` for observed (centre, context) pairs and
``log σ(-u_n · v_w)`` for sampled negatives, where negatives are drawn
from the unigram distribution raised to 3/4.  Updates are applied
mini-batch-wise by scatter-adds, so repeated vertices in a batch
accumulate correctly.

Each matrix takes one scatter a batch, through
:func:`repro.nn.tensor.scatter_add_rows` (``np.add.at`` on the flattened
matrix at flat indices ``row * dim + column``), the output-side rows
ordered contexts first, then the negatives row-major.  ``np.add.at``
applies its adds one after another in index order, so every cell
receives the same adds in the same order as three row-wise scatters
(centres; contexts; negatives) would give it, and the trained matrices
are bitwise the same; the flat form only drops the per-row overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.nn.tensor import scatter_add_rows
from repro.rng import RngLike, make_rng

__all__ = ["SkipGramConfig", "SkipGramModel", "build_training_pairs"]


def build_training_pairs(
    walks: list[list[int]], window: int
) -> tuple[np.ndarray, np.ndarray]:
    """(centre, context) index pairs from walks with the given window.

    Matches word2vec: every ordered pair within ``window`` positions of
    each other (both directions) is a positive example.  Pairs come walk
    by walk, centre position ascending, then context position ascending.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    lengths = np.fromiter(map(len, walks), dtype=np.int64, count=len(walks))
    total = int(lengths.sum())
    vertices = np.fromiter(chain.from_iterable(walks), dtype=np.int64, count=total)
    # Each position sees the offsets -window..-1, 1..window, masked to the
    # bounds of its own walk; a row-major mask keeps the pair order.
    ends = np.repeat(np.cumsum(lengths), lengths)
    starts = ends - np.repeat(lengths, lengths)
    offsets = np.concatenate([np.arange(-window, 0), np.arange(1, window + 1)])
    positions = np.arange(total)[:, None] + offsets
    valid = (positions >= starts[:, None]) & (positions < ends[:, None])
    centres = np.broadcast_to(vertices[:, None], positions.shape)[valid]
    return centres, vertices[positions[valid]]


@dataclass(frozen=True)
class SkipGramConfig:
    """Hyper-parameters for SGNS training."""

    dim: int = 64
    window: int = 5
    negatives: int = 5
    epochs: int = 3
    learning_rate: float = 0.05
    min_learning_rate: float = 0.0001
    batch_size: int = 256

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.negatives < 1:
            raise ValueError(f"negatives must be >= 1, got {self.negatives}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.learning_rate)
                and math.isfinite(self.min_learning_rate)):
            raise ValueError(
                f"learning rates must be finite, got ({self.learning_rate}, "
                f"{self.min_learning_rate})"
            )
        if self.learning_rate <= 0 or self.min_learning_rate <= 0:
            raise ValueError("learning rates must be positive")
        if self.min_learning_rate > self.learning_rate:
            raise ValueError("min_learning_rate exceeds learning_rate")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    ex = np.exp(x[~positive])
    out[~positive] = ex / (1.0 + ex)
    return out


class SkipGramModel:
    """Input (``vectors``) and output (``context_vectors``) matrices.

    ``vectors`` — the matrix handed to PathRank as the pre-trained
    vertex embedding ``B``.
    """

    def __init__(self, vocab_size: int, config: SkipGramConfig, rng: RngLike = None) -> None:
        if vocab_size < 2:
            raise ValueError(f"vocab_size must be >= 2, got {vocab_size}")
        generator = make_rng(rng)
        self.vocab_size = vocab_size
        self.config = config
        bound = 0.5 / config.dim
        self.vectors = generator.uniform(-bound, bound, size=(vocab_size, config.dim))
        self.context_vectors = np.zeros((vocab_size, config.dim))

    # ------------------------------------------------------------------
    # Negative-sampling noise distribution
    # ------------------------------------------------------------------
    def _build_noise(self, centres: np.ndarray) -> None:
        counts = np.bincount(centres, minlength=self.vocab_size).astype(float)
        counts = np.maximum(counts, 1.0) ** 0.75  # unigram^(3/4), smoothed
        self._noise_probs = counts / counts.sum()

    def _draw_negatives(self, rng: np.random.Generator, size: tuple[int, int]) -> np.ndarray:
        return rng.choice(self.vocab_size, size=size, p=self._noise_probs)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train(
        self,
        walks: list[list[int]],
        rng: RngLike = None,
        callback=None,
    ) -> list[float]:
        """Fit on the walks; returns the mean SGNS loss per epoch.

        ``callback(epoch, loss)`` is invoked after each epoch when given.
        """
        generator = make_rng(rng)
        centres, contexts = build_training_pairs(walks, self.config.window)
        if centres.size == 0:
            raise ValueError("no training pairs produced; are the walks too short?")
        self._build_noise(centres)

        cfg = self.config
        num_pairs = centres.size
        total_batches = cfg.epochs * max(1, (num_pairs + cfg.batch_size - 1) // cfg.batch_size)
        seen_batches = 0
        epoch_losses: list[float] = []

        for epoch in range(cfg.epochs):
            order = generator.permutation(num_pairs)
            losses: list[float] = []
            for start in range(0, num_pairs, cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                progress = seen_batches / total_batches
                lr = cfg.learning_rate + (cfg.min_learning_rate - cfg.learning_rate) * progress
                losses.append(self._step(centres[batch], contexts[batch], lr, generator))
                seen_batches += 1
            epoch_loss = float(np.mean(losses))
            epoch_losses.append(epoch_loss)
            if callback is not None:
                callback(epoch, epoch_loss)
        return epoch_losses

    def _step(
        self,
        centres: np.ndarray,
        contexts: np.ndarray,
        lr: float,
        rng: np.random.Generator,
    ) -> float:
        """One SGNS mini-batch update; returns the batch loss."""
        batch = centres.size
        num_negatives, dim = self.config.negatives, self.config.dim
        negatives = self._draw_negatives(rng, (batch, num_negatives))

        centre_vecs = self.vectors[centres]                      # (B, D)
        context_vecs = self.context_vectors[contexts]            # (B, D)
        negative_vecs = self.context_vectors[negatives]          # (B, N, D)

        pos_score = _sigmoid(np.einsum("bd,bd->b", centre_vecs, context_vecs))
        neg_score = _sigmoid(np.einsum("bnd,bd->bn", negative_vecs, centre_vecs))

        eps = 1e-10
        loss = -(np.log(pos_score + eps).sum()
                 + np.log(1.0 - neg_score + eps).sum()) / batch

        # Gradients of the SGNS objective.  The output side (contexts,
        # then negatives row-major) shares one (B·(1+N), D) buffer, the
        # row order of its single scatter.
        pos_coeff = (pos_score - 1.0)[:, None]                    # (B, 1)
        neg_coeff = neg_score[:, :, None]                         # (B, N, 1)
        outputs = np.concatenate([contexts, negatives.reshape(-1)])
        grad_output = np.empty((outputs.size, dim))

        grad_centre = pos_coeff * context_vecs + np.einsum(
            "bnd->bd", neg_coeff * negative_vecs)
        np.multiply(pos_coeff, centre_vecs, out=grad_output[:batch])
        np.multiply(neg_coeff, centre_vecs[:, None, :],
                    out=grad_output[batch:].reshape(batch, num_negatives, dim))

        # Duplicate damping: scatter-added updates for a row repeated K
        # times in one batch are all computed at the stale value, which
        # multiplies the effective step by K and can destabilise training
        # on repetitive walks.  Scaling each pair's contribution by
        # 1/sqrt(K) keeps frequent rows moving decisively while bounding
        # the blow-up (pure summing diverges; pure averaging stalls).
        centre_counts = np.bincount(centres, minlength=self.vocab_size)
        output_counts = np.bincount(outputs, minlength=self.vocab_size)
        grad_centre /= np.sqrt(centre_counts[centres])[:, None]
        grad_output /= np.sqrt(output_counts[outputs])[:, None]
        grad_centre *= -lr
        grad_output *= -lr

        scatter_add_rows(self.vectors, centres, grad_centre)
        scatter_add_rows(self.context_vectors, outputs, grad_output)
        return loss

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def similarity(self, a: int, b: int) -> float:
        """Cosine similarity between two vertex embeddings."""
        va, vb = self.vectors[a], self.vectors[b]
        denom = np.linalg.norm(va) * np.linalg.norm(vb)
        if denom == 0.0:
            return 0.0
        return float(va @ vb / denom)
