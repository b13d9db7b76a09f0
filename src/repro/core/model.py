"""The PathRank network: embedding → (bi)GRU → fully-connected head.

This is the paper's architecture figure as code:

* a **vertex-embedding matrix B** of size ``(n, M)``, initialised from
  node2vec (frozen in PR-A1, fine-tuned in PR-A2);
* a **bidirectional GRU** reading the candidate path's vertex sequence
  (hidden states h and h′ in the figure, concatenated into H);
* an **FC regression head** mapping the sequence summary to the
  estimated similarity ``Sim ∈ [0, 1]`` via a sigmoid.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigError
from repro.graph.path import Path
from repro.core.batching import encode_paths
from repro.nn import BiGRU, Dropout, Embedding, GRU, Linear, Module, Tensor, no_grad
from repro.nn.fused import compiled_for
from repro.ranking.training_data import RankingQuery
from repro.rng import RngLike, make_rng, spawn

__all__ = ["PathRank"]


class PathRank(Module):
    """Estimates the ranking score of a candidate path (regression).

    Parameters
    ----------
    num_vertices:
        Size of the network's vertex set (dense ids ``0..n-1``).
    embedding_dim:
        The paper's feature size ``M``.
    hidden_size:
        GRU hidden width per direction.
    fc_hidden:
        Width of the intermediate fully-connected layer.
    embedding_matrix:
        Optional pre-trained node2vec matrix; overrides random init.
    trainable_embedding:
        ``False`` freezes B (PR-A1); ``True`` fine-tunes it (PR-A2).
    bidirectional:
        ``False`` swaps the BiGRU for a single forward GRU (ablation).
    pooling:
        How the per-step hidden states H_1..H_Z are reduced to the
        sequence summary the FC head sees: ``"mean"`` (masked average
        over all steps — the default; candidates for one query share
        both endpoints, so the discriminative signal lives in the middle
        of the sequence) or ``"final"`` (concatenated final states, the
        classic seq2vec reduction, kept for the ablation).
    """

    def __init__(
        self,
        num_vertices: int,
        embedding_dim: int = 64,
        hidden_size: int = 64,
        fc_hidden: int = 32,
        embedding_matrix: np.ndarray | None = None,
        trainable_embedding: bool = True,
        bidirectional: bool = True,
        dropout: float = 0.0,
        pooling: str = "mean",
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        if num_vertices < 1:
            raise ConfigError(f"num_vertices must be >= 1, got {num_vertices}")
        if embedding_dim < 1 or hidden_size < 1 or fc_hidden < 1:
            raise ConfigError("embedding_dim, hidden_size, fc_hidden must be >= 1")
        generator = make_rng(rng)
        (emb_rng, rnn_rng, fc1_rng, fc2_rng, drop_rng,
         attn_rng, attn_score_rng) = spawn(generator, 7)

        if embedding_matrix is not None:
            matrix = np.asarray(embedding_matrix, dtype=float)
            if matrix.shape != (num_vertices, embedding_dim):
                raise ConfigError(
                    f"embedding matrix shape {matrix.shape} does not match "
                    f"(num_vertices={num_vertices}, M={embedding_dim})"
                )
            self.embedding = Embedding.from_pretrained(matrix,
                                                       trainable=trainable_embedding)
        else:
            self.embedding = Embedding(num_vertices, embedding_dim, rng=emb_rng)
            if not trainable_embedding:
                self.embedding.weight.freeze()

        self.bidirectional = bool(bidirectional)
        if self.bidirectional:
            self.rnn = BiGRU(embedding_dim, hidden_size, rng=rnn_rng)
            summary_size = 2 * hidden_size
        else:
            self.rnn = GRU(embedding_dim, hidden_size, rng=rnn_rng)
            summary_size = hidden_size

        if pooling not in ("mean", "final", "attention"):
            raise ConfigError(
                f"pooling must be 'mean', 'final' or 'attention', got {pooling!r}"
            )
        self.pooling = pooling
        self.num_vertices = num_vertices
        self.embedding_dim = embedding_dim
        self.hidden_size = hidden_size
        self.summary_size = summary_size
        self.fc1 = Linear(summary_size, fc_hidden, rng=fc1_rng)
        self.dropout = Dropout(dropout, rng=drop_rng) if dropout > 0 else None
        self.fc2 = Linear(fc_hidden, 1, rng=fc2_rng)
        if pooling == "attention":
            # Additive attention over the per-step hidden states H_t:
            # score_t = v . tanh(W H_t); weights are a masked softmax.
            self.attn_proj = Linear(summary_size, fc_hidden, rng=attn_rng)
            self.attn_score = Linear(fc_hidden, 1, bias=False, rng=attn_score_rng)

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def summarise(self, vertex_ids: np.ndarray, mask: np.ndarray) -> Tensor:
        """The (batch, summary_size) sequence summary H."""
        embedded = self.embedding(vertex_ids)  # (T, B, M)
        outputs, final = self.rnn(embedded, mask=mask)
        if self.pooling == "final":
            return final
        if self.pooling == "attention":
            return self._attention_pool(outputs, mask)
        # Masked mean over time: padded steps contribute nothing.
        mask_tensor = Tensor(mask[:, :, None])
        weighted = outputs * mask_tensor                       # (T, B, H*)
        totals = weighted.sum(axis=0)                          # (B, H*)
        counts = Tensor(np.maximum(mask.sum(axis=0), 1.0)[:, None])
        return totals / counts

    def _attention_pool(self, outputs: Tensor, mask: np.ndarray) -> Tensor:
        """Masked additive attention over the per-step states."""
        logits = self.attn_score(self.attn_proj(outputs).tanh())   # (T, B, 1)
        logits = logits.reshape(logits.shape[0], logits.shape[1])  # (T, B)
        # Push padded steps to -inf before the softmax over time.
        penalty = Tensor((1.0 - mask) * -1e9)
        shifted = logits + penalty
        stable = shifted - Tensor(shifted.data.max(axis=0, keepdims=True))
        weights = stable.exp() * Tensor(mask)
        weights = weights / weights.sum(axis=0, keepdims=True)
        expanded = weights.reshape(weights.shape[0], weights.shape[1], 1)
        return (outputs * expanded).sum(axis=0)

    def forward(self, vertex_ids: np.ndarray, mask: np.ndarray) -> Tensor:
        """Estimated similarity scores, shape ``(batch,)``, in [0, 1]."""
        summary = self.summarise(vertex_ids, mask)
        hidden = self.fc1(summary).tanh()
        if self.dropout is not None:
            hidden = self.dropout(hidden)
        logits = self.fc2(hidden)
        return logits.sigmoid().reshape(logits.shape[0])

    # ------------------------------------------------------------------
    # Inference conveniences
    # ------------------------------------------------------------------
    def score_paths(self, paths: Sequence[Path],
                    backend: str | None = None) -> np.ndarray:
        """Scores for arbitrary paths (inference mode, no graph).

        By default the fused numpy kernel (:mod:`repro.nn.fused`) scores
        the whole batch graph-free in one call; ``backend="module"``
        runs the reference autograd forward instead, the parity oracle.
        Both return identical scores up to float32 roundoff; any other
        ``backend`` raises :class:`~repro.errors.ConfigError`.
        """
        if backend is not None and backend != "module":
            raise ConfigError(
                f"unknown scoring backend {backend!r}; pass None for the "
                f"fused kernel or 'module' for the reference forward")
        if not paths:
            return np.zeros(0)
        if backend is None:
            return compiled_for(self).score([path.vertices for path in paths])
        was_training = self.training
        self.eval()
        try:
            vertex_ids, mask = encode_paths(paths)
            with no_grad():
                scores = self.forward(vertex_ids, mask)
            return scores.data.copy()
        finally:
            if was_training:
                self.train()

    def score_query(self, query: RankingQuery) -> list[float]:
        """Scorer-protocol adapter used by the evaluation harness."""
        return self.score_paths(query.paths()).tolist()
