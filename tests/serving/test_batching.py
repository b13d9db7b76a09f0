"""Coalesced scoring: equivalence with sequential, chunking, caching."""

import numpy as np
import pytest

from repro.errors import ServingError
from repro.graph.ksp import yen_k_shortest_paths
from repro.serving import BatchingScorer, ScoreCache


@pytest.fixture(scope="module")
def model(small_grid, make_ranker):
    return make_ranker(small_grid, seed=3).model


@pytest.fixture(scope="module")
def candidate_lists(small_grid):
    """Candidate sets of varying path lengths from several OD pairs."""
    ids = small_grid.vertex_ids()
    pairs = [(ids[0], ids[-1]), (ids[3], ids[-5]), (ids[0], ids[7]),
             (ids[10], ids[-1])]
    return [yen_k_shortest_paths(small_grid, s, t, 4) for s, t in pairs]


class TestEquivalence:
    def test_batched_matches_sequential_scoring(self, model, candidate_lists):
        sequential = [model.score_paths(paths) for paths in candidate_lists]
        scorer = BatchingScorer(max_batch_size=64)
        batched = scorer.score_many(model, candidate_lists)
        assert scorer.batches_run == 1  # all queries shared one forward pass
        for got, want in zip(batched, sequential):
            np.testing.assert_allclose(got, want, atol=1e-9, rtol=0.0)

    def test_equivalence_survives_small_batch_chunks(self, model,
                                                     candidate_lists):
        sequential = [model.score_paths(paths) for paths in candidate_lists]
        scorer = BatchingScorer(max_batch_size=3)
        batched = scorer.score_many(model, candidate_lists)
        assert scorer.batches_run > 1
        for got, want in zip(batched, sequential):
            np.testing.assert_allclose(got, want, atol=1e-9, rtol=0.0)


class TestTickets:
    def test_ticket_unavailable_before_flush(self, candidate_lists):
        scorer = BatchingScorer()
        ticket = scorer.submit(candidate_lists[0])
        assert not ticket.ready
        with pytest.raises(ServingError, match="flush"):
            _ = ticket.scores

    def test_flush_scores_all_pending(self, model, candidate_lists):
        scorer = BatchingScorer()
        tickets = [scorer.submit(paths) for paths in candidate_lists]
        assert scorer.pending_requests() == len(candidate_lists)
        scorer.flush(model)
        assert scorer.pending_requests() == 0
        for ticket, paths in zip(tickets, candidate_lists):
            assert ticket.ready
            assert ticket.scores.shape == (len(paths),)

    def test_empty_flush_is_a_noop(self, model):
        scorer = BatchingScorer()
        assert scorer.flush(model) == 0
        assert scorer.batches_run == 0

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ServingError):
            BatchingScorer(max_batch_size=0)


class TestChunkingAndDedup:
    def test_chunking_respects_max_batch_size(self, model, candidate_lists):
        total = sum(len(paths) for paths in candidate_lists)
        scorer = BatchingScorer(max_batch_size=3)
        scorer.score_many(model, candidate_lists)
        assert scorer.paths_scored == total  # all paths here are distinct
        assert scorer.batches_run == -(-total // 3)

    def test_duplicate_paths_scored_once_per_flush(self, model,
                                                   candidate_lists):
        scorer = BatchingScorer()
        repeated = [candidate_lists[0], candidate_lists[0]]
        scores = scorer.score_many(model, repeated)
        assert scorer.paths_scored == len(candidate_lists[0])
        np.testing.assert_array_equal(scores[0], scores[1])


class TestBucketedFlush:
    def test_mixed_length_flush_matches_sequential(self, model, small_grid,
                                                   random_walk_paths):
        """Length-sorted chunking + per-bucket padding must not change a
        single score relative to one-query-at-a-time scoring."""
        rng = np.random.default_rng(7)
        lists = [random_walk_paths(small_grid,
                                   [int(n) for n in rng.integers(2, 30, 5)],
                                   rng)
                 for _ in range(4)]
        sequential = [model.score_paths(paths) for paths in lists]
        scorer = BatchingScorer(max_batch_size=6)
        batched = scorer.score_many(model, lists)
        for got, want in zip(batched, sequential):
            np.testing.assert_allclose(got, want, atol=1e-7, rtol=0.0)

    def test_flush_returns_python_floats(self, model, candidate_lists):
        scorer = BatchingScorer()
        ticket = scorer.submit(candidate_lists[0])
        scorer.flush(model)
        assert ticket.scores.dtype == np.float64


class TestScoreCacheIntegration:
    def test_repeat_flush_skips_forward_pass(self, model, candidate_lists):
        scorer = BatchingScorer(score_cache=ScoreCache(capacity=64))
        first = scorer.score_many(model, candidate_lists, "v1")
        batches_after_first = scorer.batches_run
        second = scorer.score_many(model, candidate_lists, "v1")
        assert scorer.batches_run == batches_after_first
        assert scorer.cache_hits == sum(len(p) for p in candidate_lists)
        for got, want in zip(second, first):
            np.testing.assert_array_equal(got, want)

    def test_version_change_forces_rescore(self, model, candidate_lists):
        scorer = BatchingScorer(score_cache=ScoreCache(capacity=64))
        scorer.score_many(model, candidate_lists, "v1")
        batches_after_first = scorer.batches_run
        scorer.score_many(model, candidate_lists, "v2")
        assert scorer.batches_run > batches_after_first

    def test_no_version_disables_the_cache(self, model, candidate_lists):
        # Without a version to key on, cached scores from one model could
        # be served for another; the cache must sit the flush out.
        cache = ScoreCache(capacity=64)
        scorer = BatchingScorer(score_cache=cache)
        scorer.score_many(model, candidate_lists)
        scorer.score_many(model, candidate_lists)
        assert scorer.cache_hits == 0
        assert len(cache) == 0
        assert scorer.paths_scored == 2 * sum(len(p) for p in candidate_lists)
