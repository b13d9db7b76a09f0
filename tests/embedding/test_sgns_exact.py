"""Exactness oracle for SGNS: the flat-scatter trainer against row-wise
reference code.

``reference_pairs`` is the plain word2vec loop and ``reference_step``
the mini-batch update with one row-wise ``np.add.at`` per gradient
(centres, contexts, negatives).  The trainer must reproduce both
bitwise — pairs, vectors, context vectors and per-epoch losses — not
merely to a tolerance.
"""

import numpy as np
import pytest

from repro.embedding import (BiasedWalkGenerator, SkipGramConfig, SkipGramModel,
                             skipgram)
from repro.embedding.skipgram import build_training_pairs
from repro.graph import RoadNetwork, grid_network


def reference_pairs(walks, window):
    centres, contexts = [], []
    for walk in walks:
        for i, centre in enumerate(walk):
            low = max(0, i - window)
            high = min(len(walk), i + window + 1)
            for j in range(low, high):
                if j != i:
                    centres.append(centre)
                    contexts.append(walk[j])
    return np.asarray(centres, dtype=np.int64), np.asarray(contexts, dtype=np.int64)


def reference_step(model, centres, contexts, lr, rng):
    batch = centres.size
    negatives = model._draw_negatives(rng, (batch, model.config.negatives))

    centre_vecs = model.vectors[centres]
    context_vecs = model.context_vectors[contexts]
    negative_vecs = model.context_vectors[negatives]

    pos_score = skipgram._sigmoid(np.einsum("bd,bd->b", centre_vecs, context_vecs))
    neg_score = skipgram._sigmoid(np.einsum("bnd,bd->bn", negative_vecs, centre_vecs))

    eps = 1e-10
    loss = -(np.log(pos_score + eps).sum()
             + np.log(1.0 - neg_score + eps).sum()) / batch

    pos_coeff = (pos_score - 1.0)[:, None]
    neg_coeff = neg_score[:, :, None]

    grad_centre = pos_coeff * context_vecs + np.einsum(
        "bnd->bd", neg_coeff * negative_vecs)
    grad_context = pos_coeff * centre_vecs
    grad_negative = neg_coeff * centre_vecs[:, None, :]

    flat_negatives = negatives.reshape(-1)
    centre_counts = np.bincount(centres, minlength=model.vocab_size)
    output_counts = (np.bincount(contexts, minlength=model.vocab_size)
                     + np.bincount(flat_negatives, minlength=model.vocab_size))
    grad_centre /= np.sqrt(centre_counts[centres])[:, None]
    grad_context /= np.sqrt(output_counts[contexts])[:, None]
    grad_negative_flat = grad_negative.reshape(-1, model.config.dim)
    grad_negative_flat /= np.sqrt(output_counts[flat_negatives])[:, None]

    np.add.at(model.vectors, centres, -lr * grad_centre)
    np.add.at(model.context_vectors, contexts, -lr * grad_context)
    np.add.at(model.context_vectors, flat_negatives, -lr * grad_negative_flat)
    return loss


class ReferenceModel(SkipGramModel):
    _step = reference_step


def _dead_end_network() -> RoadNetwork:
    """0 <-> 1 -> 2 -> 3: every walk that leaves 1 forward ends at 3."""
    net = RoadNetwork()
    for v in range(4):
        net.add_vertex(v, float(v), 0.0)
    net.add_two_way(0, 1, length=1.0)
    net.add_edge(1, 2, length=1.0)
    net.add_edge(2, 3, length=1.0)
    return net


def _ragged_walks() -> list[list[int]]:
    rng = np.random.default_rng(3)
    return [rng.integers(0, 9, size=length).tolist() for length in range(1, 13)]


def _dead_end_walks() -> list[list[int]]:
    walker = BiasedWalkGenerator(_dead_end_network())
    walks = walker.generate(6, 8, rng=5)
    assert any(1 < len(walk) < 8 for walk in walks)
    return walks


def _grid_walks() -> list[list[int]]:
    return BiasedWalkGenerator(grid_network(4, 4, seed=0), p=0.5, q=2.0).generate(
        3, 15, rng=11)


def _duplicate_heavy_walks() -> list[list[int]]:
    rng = np.random.default_rng(8)
    return [rng.integers(0, 5, size=20).tolist() for _ in range(12)]


CORPORA = {
    "ragged": _ragged_walks,
    "dead_end": _dead_end_walks,
    "grid": _grid_walks,
    "duplicate_heavy": _duplicate_heavy_walks,
}


class TestTrainingPairsExact:
    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    @pytest.mark.parametrize("window", [1, 2, 5])
    def test_pairs_equal_reference(self, corpus, window):
        walks = CORPORA[corpus]()
        centres, contexts = build_training_pairs(walks, window)
        want_centres, want_contexts = reference_pairs(walks, window)
        assert centres.dtype == contexts.dtype == np.int64
        np.testing.assert_array_equal(centres, want_centres)
        np.testing.assert_array_equal(contexts, want_contexts)

    @pytest.mark.parametrize("walks", [[], [[4]], [[], [1], [2]]])
    def test_no_pairs(self, walks):
        centres, contexts = build_training_pairs(walks, 3)
        assert centres.shape == contexts.shape == (0,)
        assert centres.dtype == contexts.dtype == np.int64

    def test_empty_walk_list_is_rejected_by_training(self):
        with pytest.raises(ValueError):
            SkipGramModel(5, SkipGramConfig(dim=4), rng=0).train([], rng=0)


#: corpus -> (vocabulary size, config); every batch size leaves a ragged
#: last batch.
TRAINING_CASES = {
    "grid": (16, SkipGramConfig(dim=8, window=3, negatives=4, epochs=2,
                                batch_size=64)),
    "ragged": (9, SkipGramConfig(dim=6, window=2, negatives=3, epochs=3,
                                 batch_size=7)),
    "dead_end": (4, SkipGramConfig(dim=5, window=2, negatives=5, epochs=2,
                                   batch_size=13)),
    "duplicate_heavy": (5, SkipGramConfig(dim=8, window=4, negatives=6,
                                          epochs=2, batch_size=100)),
}


class TestTrainingExact:
    @pytest.mark.parametrize("seed", [7, 8, 9])
    @pytest.mark.parametrize("corpus", sorted(TRAINING_CASES))
    def test_matches_row_wise_reference(self, monkeypatch, corpus, seed):
        vocab, config = TRAINING_CASES[corpus]
        walks = CORPORA[corpus]()
        model = SkipGramModel(vocab, config, rng=seed)
        losses = model.train(walks, rng=seed + 100)

        monkeypatch.setattr(skipgram, "build_training_pairs", reference_pairs)
        reference = ReferenceModel(vocab, config, rng=seed)
        want_losses = reference.train(walks, rng=seed + 100)

        num_pairs = reference_pairs(walks, config.window)[0].size
        assert num_pairs % config.batch_size != 0  # a ragged last batch
        np.testing.assert_array_equal(model.vectors, reference.vectors)
        np.testing.assert_array_equal(model.context_vectors,
                                      reference.context_vectors)
        assert losses == want_losses
