"""Tests for SGNS training and the node2vec orchestration."""

import numpy as np
import pytest

from repro.embedding import (
    Node2Vec,
    Node2VecConfig,
    SkipGramConfig,
    SkipGramModel,
    build_training_pairs,
)
from repro.graph import grid_network


class TestTrainingPairs:
    def test_window_one(self):
        centres, contexts = build_training_pairs([[0, 1, 2]], window=1)
        pairs = set(zip(centres.tolist(), contexts.tolist()))
        assert pairs == {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_window_two_covers_skips(self):
        centres, contexts = build_training_pairs([[0, 1, 2]], window=2)
        pairs = set(zip(centres.tolist(), contexts.tolist()))
        assert (0, 2) in pairs and (2, 0) in pairs

    def test_no_self_pairs(self):
        centres, contexts = build_training_pairs([[0, 1, 2, 3]], window=3)
        assert not np.any(centres == contexts) or len(set([0, 1, 2, 3])) == 4

    def test_multiple_walks_concatenate(self):
        c1, _ = build_training_pairs([[0, 1]], window=1)
        c2, _ = build_training_pairs([[0, 1], [2, 3]], window=1)
        assert c2.size == 2 * c1.size

    def test_short_walk_no_pairs(self):
        centres, contexts = build_training_pairs([[5]], window=2)
        assert centres.size == 0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            build_training_pairs([[0, 1]], window=0)


class TestSkipGramConfig:
    def test_defaults_valid(self):
        SkipGramConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dim": 0},
            {"window": 0},
            {"negatives": 0},
            {"epochs": 0},
            {"learning_rate": 0.0},
            {"batch_size": 0},
            {"learning_rate": 0.001, "min_learning_rate": 0.01},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"min_learning_rate": float("nan")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SkipGramConfig(**kwargs)


class TestSkipGramModel:
    def test_vocab_validation(self):
        with pytest.raises(ValueError):
            SkipGramModel(1, SkipGramConfig())

    def test_shapes(self):
        model = SkipGramModel(10, SkipGramConfig(dim=8))
        assert model.vectors.shape == (10, 8)
        assert model.context_vectors.shape == (10, 8)

    def test_empty_walks_rejected(self):
        model = SkipGramModel(5, SkipGramConfig())
        with pytest.raises(ValueError):
            model.train([[0], [1]])

    def test_loss_decreases(self):
        # Two disjoint "communities" visited by separate walks.
        walks = [[0, 1, 2, 0, 1, 2] for _ in range(20)]
        walks += [[3, 4, 5, 3, 4, 5] for _ in range(20)]
        model = SkipGramModel(6, SkipGramConfig(dim=16, epochs=5, window=2), rng=0)
        losses = model.train(walks, rng=0)
        assert losses[-1] < losses[0]

    def test_learns_community_structure(self):
        walks = [[0, 1, 2, 1, 0, 2] for _ in range(30)]
        walks += [[3, 4, 5, 4, 3, 5] for _ in range(30)]
        model = SkipGramModel(6, SkipGramConfig(dim=16, epochs=8, window=2), rng=1)
        model.train(walks, rng=1)
        intra = model.similarity(0, 1)
        inter = model.similarity(0, 4)
        assert intra > inter

    def test_callback_invoked(self):
        walks = [[0, 1, 2]] * 5
        model = SkipGramModel(3, SkipGramConfig(epochs=2), rng=0)
        seen = []
        model.train(walks, rng=0, callback=lambda e, l: seen.append((e, l)))
        assert [e for e, _ in seen] == [0, 1]

    def test_similarity_bounds(self):
        model = SkipGramModel(5, SkipGramConfig(dim=4), rng=0)
        for a in range(5):
            for b in range(5):
                assert -1.0 - 1e-9 <= model.similarity(a, b) <= 1.0 + 1e-9


class TestNode2Vec:
    @pytest.fixture(scope="class")
    def fitted(self):
        net = grid_network(5, 5, seed=3)
        n2v = Node2Vec(net, Node2VecConfig(dim=16, num_walks=6, walk_length=20, epochs=3))
        matrix = n2v.fit(rng=0)
        return net, n2v, matrix

    def test_matrix_shape(self, fitted):
        net, _, matrix = fitted
        assert matrix.shape == (net.num_vertices, 16)

    def test_losses_recorded(self, fitted):
        _, n2v, _ = fitted
        assert len(n2v.losses) == 3
        assert n2v.losses[-1] <= n2v.losses[0]

    def test_neighbours_embed_closer_than_distant(self, fitted):
        net, n2v, _ = fitted
        model = n2v.model
        neighbour = net.successors(0)[0]
        far = net.num_vertices - 1
        assert model.similarity(0, neighbour) > model.similarity(0, far)

    def test_requires_dense_ids(self):
        from repro.graph import RoadNetwork

        net = RoadNetwork()
        net.add_vertex(5, 0, 0)
        net.add_vertex(9, 1, 0)
        net.add_two_way(5, 9, length=1.0)
        with pytest.raises(ValueError):
            Node2Vec(net)

    def test_matrix_before_fit_rejected(self):
        net = grid_network(4, 4, seed=0)
        with pytest.raises(RuntimeError):
            Node2Vec(net).embedding_matrix

    def test_deterministic(self):
        net = grid_network(4, 4, seed=0)
        config = Node2VecConfig(dim=8, num_walks=2, walk_length=10, epochs=1)
        a = Node2Vec(net, config).fit(rng=7)
        b = Node2Vec(net, config).fit(rng=7)
        np.testing.assert_allclose(a, b)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Node2VecConfig(num_walks=0)
        with pytest.raises(ValueError):
            Node2VecConfig(p=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"learning_rate": 1e-5},  # below the SGNS minimum rate
            {"p": float("nan")},
            {"q": float("inf")},
            {"dim": 0},
            {"window": 0},
            {"negatives": 0},
            {"epochs": 0},
        ],
    )
    def test_config_rejects_bad_fields_at_construction(self, kwargs):
        # Every field is checked before a walk is generated: a NaN rate
        # would otherwise train to an all-NaN embedding without an error.
        with pytest.raises(ValueError):
            Node2VecConfig(**kwargs)
