"""Tests for the Trainer and the end-to-end PathRankRanker API.

These use a small grid network and short training budgets; they verify
convergence mechanics and API contracts, not headline accuracy (the
benchmarks do that).
"""

import numpy as np
import pytest

from repro.core import (
    PathRankRanker,
    RankerConfig,
    Trainer,
    TrainerConfig,
    Variant,
    build_pathrank,
)
from repro.core.trainer import _pairs_within, flatten_queries
from repro.errors import ConfigError, TrainingError
from repro.graph import grid_network
from repro.ranking import Strategy, TrainingDataConfig, generate_queries
from repro.trajectories import FleetConfig, generate_fleet


@pytest.fixture(scope="module")
def small_setup():
    network = grid_network(6, 6, seed=2)
    config = FleetConfig(num_drivers=6, trips_per_driver=6,
                         min_trip_distance=600.0, num_od_hotspots=12)
    _, trips = generate_fleet(network, rng=4, config=config)
    queries = generate_queries(
        trips,
        TrainingDataConfig(strategy=Strategy.TKDI, k=4),
    )
    return network, trips, queries


class TestFlattenAndPairs:
    def test_flatten_counts(self, small_setup):
        _, _, queries = small_setup
        material = flatten_queries(queries)
        assert len(material) == len(queries)
        paths, targets, scores = material[0]
        assert len(paths) == targets.shape[0] == scores.shape[0]

    def test_flatten_with_aux_columns(self, small_setup):
        _, _, queries = small_setup
        material = flatten_queries(queries, with_aux=True)
        _, targets, _ = material[0]
        assert targets.ndim == 2 and targets.shape[1] == 3
        assert np.all(targets[:, 1:] <= 1.0 + 1e-9)

    def test_flatten_empty_rejected(self):
        with pytest.raises(TrainingError):
            flatten_queries([])

    def test_pairs_within_margin(self):
        pairs = _pairs_within(np.array([0.9, 0.5, 0.52]), margin=0.05)
        as_set = {tuple(p) for p in pairs}
        assert (0, 1) in as_set and (0, 2) in as_set
        assert (2, 1) not in as_set  # gap 0.02 below margin

    def test_pairs_empty_when_constant(self):
        assert _pairs_within(np.array([0.5, 0.5]), margin=0.05).shape == (0, 2)


class TestTrainer:
    def make_model(self, network, **kwargs):
        return build_pathrank(Variant.PR_A2, num_vertices=network.num_vertices,
                              embedding_dim=8, hidden_size=8, fc_hidden=4,
                              rng=0, **kwargs)

    def test_loss_decreases(self, small_setup):
        network, _, queries = small_setup
        model = self.make_model(network)
        trainer = Trainer(model, TrainerConfig(epochs=8, patience=8,
                                               queries_per_batch=8), rng=0)
        history = trainer.fit(queries)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_epoch_loss_weighs_batches_by_queries(self, small_setup):
        """Three queries in batches of two: the 1-query tail batch gets a
        third of the epoch loss, not half of it."""
        network, _, queries = small_setup
        trainer = Trainer(self.make_model(network),
                          TrainerConfig(epochs=1, queries_per_batch=2), rng=0)
        seen = []
        batch_loss = trainer._query_batch_loss

        def spy(batch):
            loss = batch_loss(batch)
            seen.append((len(batch), loss.item()))
            return loss

        trainer._query_batch_loss = spy
        history = trainer.fit(queries[:3])
        (n1, l1), (n2, l2) = seen
        assert (n1, n2) == (2, 1)
        assert history.train_loss[0] == pytest.approx((2 * l1 + l2) / 3,
                                                      rel=1e-12)

    def test_early_stopping(self, small_setup):
        network, _, queries = small_setup
        model = self.make_model(network)
        trainer = Trainer(model, TrainerConfig(epochs=200, patience=2,
                                               queries_per_batch=8,
                                               min_delta=0.5), rng=0)
        history = trainer.fit(queries)
        assert history.stopped_early
        assert history.epochs_run < 200

    def test_validation_tracked(self, small_setup):
        network, _, queries = small_setup
        model = self.make_model(network)
        trainer = Trainer(model, TrainerConfig(epochs=4, patience=4,
                                               queries_per_batch=8), rng=0)
        history = trainer.fit(queries[:-3], validation_queries=queries[-3:])
        assert len(history.validation_loss) == history.epochs_run

    def test_best_weights_restored(self, small_setup):
        network, _, queries = small_setup
        model = self.make_model(network)
        trainer = Trainer(model, TrainerConfig(epochs=6, patience=6,
                                               queries_per_batch=8), rng=0)
        history = trainer.fit(queries[:-3], validation_queries=queries[-3:])
        assert 0 <= history.best_epoch < history.epochs_run

    def test_multitask_training_runs(self, small_setup):
        network, _, queries = small_setup
        model = build_pathrank(Variant.PR_M, num_vertices=network.num_vertices,
                               embedding_dim=8, hidden_size=8, fc_hidden=4, rng=0)
        trainer = Trainer(model, TrainerConfig(epochs=3, patience=3,
                                               queries_per_batch=8), rng=0)
        history = trainer.fit(queries)
        assert trainer.is_multitask
        assert history.epochs_run == 3

    def test_pure_regression_mode(self, small_setup):
        """rank_weight=0 recovers the paper's pointwise objective."""
        network, _, queries = small_setup
        model = self.make_model(network)
        trainer = Trainer(model, TrainerConfig(epochs=3, patience=3,
                                               queries_per_batch=8,
                                               rank_weight=0.0), rng=0)
        history = trainer.fit(queries)
        assert history.epochs_run == 3

    def test_frozen_everything_rejected(self, small_setup):
        network, _, queries = small_setup
        model = self.make_model(network)
        for parameter in model.parameters():
            parameter.freeze()
        with pytest.raises(TrainingError):
            Trainer(model).fit(queries)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainerConfig(rank_weight=-1.0)
        with pytest.raises(ValueError):
            TrainerConfig(rank_margin=2.0)
        with pytest.raises(ValueError):
            TrainerConfig(rank_scale=0.0)

    def test_bucketed_batches_still_converge(self, small_setup):
        """Length-bucketed query batching (opt-in) must train as
        well as the plain shuffled order."""
        network, _, queries = small_setup
        losses = {}
        for bucketed in (True, False):
            model = self.make_model(network)
            trainer = Trainer(model, TrainerConfig(
                epochs=6, patience=6, queries_per_batch=8,
                bucket_by_length=bucketed), rng=0)
            history = trainer.fit(queries)
            assert history.train_loss[-1] < history.train_loss[0]
            losses[bucketed] = history.train_loss[-1]
        # Both orders reach the same loss regime (not bit-identical:
        # batch composition differs).
        assert losses[True] == pytest.approx(losses[False], rel=0.5)

    def test_bucketed_batches_visit_every_query(self, small_setup,
                                                monkeypatch):
        network, _, queries = small_setup
        model = self.make_model(network)
        trainer = Trainer(model, TrainerConfig(epochs=1, patience=1,
                                               queries_per_batch=4,
                                               bucket_by_length=True), rng=0)
        seen = []
        original = Trainer._query_batch_loss

        def spy(self, batch):
            seen.append(len(batch))
            return original(self, batch)

        monkeypatch.setattr(Trainer, "_query_batch_loss", spy)
        trainer.fit(queries)
        assert sum(seen) == len(queries)


class TestRanker:
    @pytest.fixture(scope="class")
    def fitted(self):
        network = grid_network(6, 6, seed=2)
        fleet_config = FleetConfig(num_drivers=6, trips_per_driver=6,
                                   min_trip_distance=600.0, num_od_hotspots=12)
        _, trips = generate_fleet(network, rng=4, config=fleet_config)
        config = RankerConfig(
            variant=Variant.PR_A2,
            embedding_dim=8,
            hidden_size=8,
            fc_hidden=4,
            training_data=TrainingDataConfig(strategy=Strategy.TKDI, k=3),
            trainer=TrainerConfig(epochs=4, patience=4, queries_per_batch=8),
            node2vec=None,
        )
        ranker = PathRankRanker(network, config)
        ranker.fit(trips, rng=0)
        return network, ranker, trips

    def test_fit_records_history(self, fitted):
        _, ranker, _ = fitted
        assert ranker.history is not None
        assert ranker.history.epochs_run >= 1

    def test_embedding_matrix_stored(self, fitted):
        network, ranker, _ = fitted
        assert ranker.embedding_matrix.shape == (network.num_vertices, 8)

    def test_rank_returns_sorted(self, fitted):
        _, ranker, trips = fitted
        results = ranker.rank(trips[0].source, trips[0].target)
        assert len(results) >= 1
        scores = [score for _, score in results]
        assert scores == sorted(scores, reverse=True)

    def test_rank_paths_connect_endpoints(self, fitted):
        _, ranker, trips = fitted
        for path, _ in ranker.rank(trips[0].source, trips[0].target):
            assert path.source == trips[0].source
            assert path.target == trips[0].target

    def test_score_paths(self, fitted):
        _, ranker, trips = fitted
        scores = ranker.score_paths([trips[0].path])
        assert scores.shape == (1,)
        assert 0.0 < scores[0] < 1.0

    def test_inference_before_fit_rejected(self):
        network = grid_network(4, 4, seed=0)
        ranker = PathRankRanker(network)
        with pytest.raises(TrainingError):
            ranker.rank(0, network.num_vertices - 1)

    def test_fit_empty_rejected(self):
        network = grid_network(4, 4, seed=0)
        with pytest.raises(TrainingError):
            PathRankRanker(network).fit([])

    def test_save_load_roundtrip(self, fitted, tmp_path):
        network, ranker, trips = fitted
        checkpoint = tmp_path / "ranker.npz"
        ranker.save(checkpoint)
        restored = PathRankRanker(network, ranker.config).load(checkpoint)
        original = ranker.score_paths([trips[0].path])
        loaded = restored.score_paths([trips[0].path])
        np.testing.assert_allclose(loaded, original)

    def test_load_wrong_network_rejected(self, fitted, tmp_path):
        _, ranker, _ = fitted
        checkpoint = tmp_path / "ranker.npz"
        ranker.save(checkpoint)
        other = grid_network(5, 5, seed=9)
        with pytest.raises(ConfigError):
            PathRankRanker(other).load(checkpoint)

    def test_non_dense_network_rejected(self):
        from repro.graph import RoadNetwork

        network = RoadNetwork()
        network.add_vertex(3, 0, 0)
        network.add_vertex(7, 1, 0)
        network.add_two_way(3, 7, length=1.0)
        with pytest.raises(ConfigError):
            PathRankRanker(network)

    def test_node2vec_dim_mismatch_rejected(self):
        from repro.embedding import Node2VecConfig

        network = grid_network(4, 4, seed=0)
        config = RankerConfig(embedding_dim=16,
                              node2vec=Node2VecConfig(dim=8))
        with pytest.raises(ConfigError):
            PathRankRanker(network, config)
