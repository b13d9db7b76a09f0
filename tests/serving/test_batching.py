"""Coalesced scoring: equivalence with sequential, chunking, dedup."""

import numpy as np
import pytest

from repro.errors import ServingError
from repro.graph.ksp import yen_k_shortest_paths
from repro.graph.path import Path
from repro.nn.fused import compiled_for
from repro.serving import BatchingScorer


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

    def test_flush_sharing_prefixes_and_suffixes_matches_per_list(
            self, small_grid, model):
        """A flush of several requests' candidates, whose paths share
        prefixes (one source) and suffixes (one target), scores each
        list as scoring it alone does, to float32 rounding."""
        ids = small_grid.vertex_ids()
        pairs = [(ids[0], ids[-1]), (ids[0], ids[-2]), (ids[1], ids[-1])]
        lists = [yen_k_shortest_paths(small_grid, s, t, 4) for s, t in pairs]
        flush = [path for paths in lists for path in paths]
        assert len({path.vertices[:2] for path in flush}) < len(flush)
        assert len({path.vertices[-2:] for path in flush}) < len(flush)
        batched = BatchingScorer(max_batch_size=64).score_many(model, lists)
        for got, paths in zip(batched, lists):
            np.testing.assert_allclose(got, model.score_paths(paths),
                                       atol=1e-6, rtol=0.0)


    def test_shared_prefixes_split_across_chunks_match_per_list(
            self, small_grid, model):
        """The same prefix-sharing flush under a three-path batch cap,
        so chunk boundaries cut through its groups, still scores each
        list as scoring it alone does, to float32 rounding."""
        ids = small_grid.vertex_ids()
        pairs = [(ids[0], ids[-1]), (ids[0], ids[-2]), (ids[1], ids[-1])]
        lists = [yen_k_shortest_paths(small_grid, s, t, 4) for s, t in pairs]
        scorer = BatchingScorer(max_batch_size=3)
        batched = scorer.score_many(model, lists)
        assert scorer.batches_run > 1
        for got, paths in zip(batched, lists):
            np.testing.assert_allclose(got, model.score_paths(paths),
                                       atol=1e-6, rtol=0.0)


class TestScoreMany:
    def test_flush_scores_every_list(self, model, candidate_lists):
        scorer = BatchingScorer()
        scores = scorer.score_many(model, candidate_lists)
        assert len(scores) == len(candidate_lists)
        for got, paths in zip(scores, candidate_lists):
            assert got.shape == (len(paths),)

    def test_empty_flush_is_a_noop(self, model):
        scorer = BatchingScorer()
        assert scorer.score_many(model, []) == []
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
        """Sorted chunking must not change a single score relative to
        one-query-at-a-time scoring."""
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

    def test_chunks_keep_shared_prefixes_together(self, model, small_grid,
                                                  random_walk_paths):
        """Two families of four paths, each behind its own 10-vertex
        prefix, lengths interleaved across families: with chunks of four
        each family lands in one chunk, so the kernel computes exactly
        the two families' own trie rows."""
        rng = np.random.default_rng(5)
        ids = small_grid.vertex_ids()
        families = []
        for start, lengths in ((ids[0], (2, 4, 6, 8)),
                               (ids[-1], (3, 5, 7, 9))):
            prefix = [start]
            while len(prefix) < 10:
                prefix.append(small_grid.out_edges(prefix[-1])[0].target)
            family = []
            for length in lengths:
                tail = random_walk_paths(small_grid, [length], rng)[0]
                while not small_grid.has_edge(prefix[-1], tail.vertices[0]):
                    tail = random_walk_paths(small_grid, [length], rng)[0]
                family.append(Path(small_grid, prefix + list(tail.vertices)))
            families.append(family)
        lists = [[a, b] for a, b in zip(*families)]
        sequential = [model.score_paths(paths) for paths in lists]
        kernel = compiled_for(model)
        before = kernel.profile_counters()["steps_total"]
        batched = BatchingScorer(max_batch_size=4).score_many(model, lists)
        rows = kernel.profile_counters()["steps_total"] - before

        def trie_rows(paths):
            """(prefix-trie + suffix-trie nodes) / 2, counted the slow way."""
            pieces = {(side, path.vertices[::side][:end])
                      for path in paths for side in (1, -1)
                      for end in range(1, path.num_vertices + 1)}
            return len(pieces) / 2

        assert rows == sum(trie_rows(family) for family in families)
        for got, want in zip(batched, sequential):
            np.testing.assert_allclose(got, want, atol=1e-7, rtol=0.0)

    def test_flush_returns_python_floats(self, model, candidate_lists):
        scorer = BatchingScorer()
        scores = scorer.score_many(model, candidate_lists[:1])[0]
        assert scores.dtype == np.float64
