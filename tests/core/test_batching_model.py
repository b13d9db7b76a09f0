"""Tests for path batching and the PathRank network."""

import numpy as np
import pytest

from repro.errors import ConfigError, DataError
from repro.core import (
    PathRank,
    PathRankMultiTask,
    Variant,
    build_pathrank,
    encode_path_buckets,
    encode_paths,
    length_buckets,
)
from repro.graph import Path
from repro.nn import Tensor, check_gradients


@pytest.fixture
def paths(tiny_network):
    return [
        Path(tiny_network, [0, 1, 2]),
        Path(tiny_network, [0, 3, 4, 5, 2]),
        Path(tiny_network, [0, 2]),
    ]


class TestEncodePaths:
    def test_shapes(self, paths):
        vertex_ids, mask = encode_paths(paths)
        assert vertex_ids.shape == (5, 3)
        assert mask.shape == (5, 3)

    def test_padding_masked(self, paths):
        vertex_ids, mask = encode_paths(paths)
        np.testing.assert_allclose(mask[:, 0], [1, 1, 1, 0, 0])
        np.testing.assert_allclose(mask[:, 1], [1, 1, 1, 1, 1])
        np.testing.assert_allclose(mask[:, 2], [1, 1, 0, 0, 0])

    def test_ids_correct(self, paths):
        vertex_ids, _ = encode_paths(paths)
        assert vertex_ids[:3, 0].tolist() == [0, 1, 2]
        assert vertex_ids[:5, 1].tolist() == [0, 3, 4, 5, 2]

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            encode_paths([])

    def test_compact_dtypes(self, paths):
        vertex_ids, mask = encode_paths(paths)
        assert vertex_ids.dtype == np.int32
        assert mask.dtype == np.float32

    def test_scratch_reused_for_repeat_shapes(self, paths):
        first_ids, first_mask = encode_paths(paths)
        again_ids, again_mask = encode_paths(paths)
        assert np.shares_memory(first_ids, again_ids)
        assert np.shares_memory(first_mask, again_mask)
        # Contents are re-written correctly on every call.
        assert again_ids[:5, 1].tolist() == [0, 3, 4, 5, 2]
        np.testing.assert_allclose(again_mask[:, 2], [1, 1, 0, 0, 0])

    def test_reuse_false_returns_fresh_arrays(self, paths):
        first_ids, first_mask = encode_paths(paths, reuse=False)
        again_ids, again_mask = encode_paths(paths, reuse=False)
        assert not np.shares_memory(first_ids, again_ids)
        assert not np.shares_memory(first_mask, again_mask)

    def test_scratch_zeroes_padding_after_larger_batch(self, paths,
                                                       tiny_network):
        encode_paths(paths)  # leaves non-zero ids in the scratch buffer
        vertex_ids, mask = encode_paths(
            [Path(tiny_network, [0, 2]), Path(tiny_network, [0, 1, 2])])
        assert vertex_ids[:, 0].tolist() == [0, 2, 0]
        np.testing.assert_allclose(mask[:, 0], [1, 1, 0])


class TestLengthBuckets:
    def test_partition_covers_every_index(self):
        lengths = [30, 2, 17, 5, 5, 90, 8, 3, 44, 12, 2, 61, 7, 9, 20, 28,
                   33, 70, 4, 11]
        buckets = length_buckets(lengths, min_bucket=4)
        flat = sorted(int(i) for bucket in buckets for i in bucket)
        assert flat == list(range(len(lengths)))

    def test_buckets_are_length_sorted(self):
        lengths = [12, 3, 40, 7, 25, 5, 90, 18, 2, 33, 6, 11, 80, 4, 55, 9]
        buckets = length_buckets(lengths, min_bucket=2)
        ordered = [lengths[int(i)] for bucket in buckets for i in bucket]
        assert ordered == sorted(lengths)

    def test_growth_bounds_full_buckets(self):
        rng = np.random.default_rng(4)
        lengths = rng.integers(2, 200, size=100)
        for bucket in length_buckets(lengths, growth=1.5, min_bucket=8):
            values = lengths[bucket]
            if len(values) > 8:
                # Elements beyond the size floor only join while within
                # the growth bound of the bucket's shortest member.
                assert values[-1] <= values[0] * 1.5

    def test_small_batches_stay_whole(self):
        buckets = length_buckets([2, 50, 9, 120], min_bucket=8)
        assert len(buckets) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            length_buckets([2, 3], growth=0.5)
        with pytest.raises(ValueError):
            length_buckets([2, 3], min_bucket=0)
        assert length_buckets([]) == []

    def test_encode_path_buckets_round_trip(self, tiny_network):
        paths = [
            Path(tiny_network, [0, 1, 2]),
            Path(tiny_network, [0, 3, 4, 5, 2]),
            Path(tiny_network, [0, 2]),
            Path(tiny_network, [1, 4, 5]),
        ]
        seen = []
        for index, vertex_ids, mask in encode_path_buckets(paths,
                                                           min_bucket=1):
            assert vertex_ids.shape == mask.shape
            for column, i in enumerate(index):
                path = paths[int(i)]
                assert vertex_ids[:path.num_vertices,
                                  column].tolist() == list(path.vertices)
                assert mask[:, column].sum() == path.num_vertices
                seen.append(int(i))
        assert sorted(seen) == [0, 1, 2, 3]

    def test_encode_path_buckets_rejects_empty(self):
        with pytest.raises(DataError):
            list(encode_path_buckets([]))


class TestPathRankModel:
    def make(self, **kwargs):
        defaults = dict(num_vertices=6, embedding_dim=8, hidden_size=8,
                        fc_hidden=4, rng=0)
        defaults.update(kwargs)
        return PathRank(**defaults)

    def test_forward_shape_and_range(self, paths):
        model = self.make()
        vertex_ids, mask = encode_paths(paths)
        scores = model(vertex_ids, mask)
        assert scores.shape == (3,)
        assert np.all((scores.data > 0) & (scores.data < 1))

    def test_score_paths(self, paths):
        model = self.make()
        scores = model.score_paths(paths)
        assert scores.shape == (3,)

    def test_score_paths_empty(self):
        assert self.make().score_paths([]).shape == (0,)

    def test_padding_invariance(self, paths, tiny_network):
        """Scoring a path alone or in a padded batch must agree."""
        model = self.make()
        short = Path(tiny_network, [0, 2])
        alone = model.score_paths([short])[0]
        batched = model.score_paths(paths)[2]
        assert alone == pytest.approx(batched, abs=1e-12)

    def test_unidirectional_option(self, paths):
        model = self.make(bidirectional=False)
        assert model.summary_size == 8
        vertex_ids, mask = encode_paths(paths)
        assert model(vertex_ids, mask).shape == (3,)

    def test_final_pooling_option(self, paths):
        model = self.make(pooling="final")
        vertex_ids, mask = encode_paths(paths)
        assert model(vertex_ids, mask).shape == (3,)

    def test_attention_pooling_option(self, paths):
        model = self.make(pooling="attention")
        vertex_ids, mask = encode_paths(paths)
        scores = model(vertex_ids, mask)
        assert scores.shape == (3,)
        assert np.all((scores.data > 0) & (scores.data < 1))

    def test_attention_padding_invariance(self, paths, tiny_network):
        model = self.make(pooling="attention")
        short = Path(tiny_network, [0, 2])
        alone = model.score_paths([short])[0]
        batched = model.score_paths(paths)[2]
        assert alone == pytest.approx(batched, abs=1e-10)

    def test_attention_registers_extra_parameters(self):
        plain = self.make(pooling="mean")
        attentive = self.make(pooling="attention")
        assert attentive.num_parameters() > plain.num_parameters()

    def test_pretrained_embedding(self):
        matrix = np.random.default_rng(0).normal(size=(6, 8))
        model = self.make(embedding_matrix=matrix)
        np.testing.assert_allclose(model.embedding.weight.data, matrix)

    def test_pretrained_shape_mismatch(self):
        with pytest.raises(ConfigError):
            self.make(embedding_matrix=np.zeros((6, 9)))

    def test_frozen_embedding_pr_a1(self):
        model = self.make(trainable_embedding=False)
        assert not model.embedding.weight.requires_grad

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            PathRank(num_vertices=0)
        with pytest.raises(ConfigError):
            self.make(pooling="max")

    def test_gradients_flow_end_to_end(self, paths):
        model = self.make()
        vertex_ids, mask = encode_paths(paths)

        def forward():
            scores = model(vertex_ids, mask)
            return (scores * scores).mean()

        check_gradients(forward, [model.embedding.weight, model.fc2.weight],
                        atol=1e-4, rtol=1e-3)

    def test_deterministic_construction(self, paths):
        a, b = self.make(rng=9), self.make(rng=9)
        vertex_ids, mask = encode_paths(paths)
        np.testing.assert_allclose(a(vertex_ids, mask).data, b(vertex_ids, mask).data)


class TestVariants:
    def test_variant_lookup(self):
        assert Variant.from_name("pr-a1") is Variant.PR_A1
        with pytest.raises(KeyError):
            Variant.from_name("pr-zz")

    def test_pr_a1_frozen(self):
        model = build_pathrank(Variant.PR_A1, num_vertices=6, embedding_dim=8,
                               hidden_size=8, fc_hidden=4)
        assert not model.embedding.weight.requires_grad

    def test_pr_a2_trainable(self):
        model = build_pathrank(Variant.PR_A2, num_vertices=6, embedding_dim=8,
                               hidden_size=8, fc_hidden=4)
        assert model.embedding.weight.requires_grad

    def test_pr_m_is_multitask(self, paths):
        model = build_pathrank(Variant.PR_M, num_vertices=6, embedding_dim=8,
                               hidden_size=8, fc_hidden=4)
        assert isinstance(model, PathRankMultiTask)
        vertex_ids, mask = encode_paths(paths)
        scores, aux = model.forward_with_aux(vertex_ids, mask)
        assert scores.shape == (3,)
        assert aux.shape == (3, 2)

    def test_build_from_string(self):
        model = build_pathrank("PR-A2", num_vertices=6, embedding_dim=8,
                               hidden_size=8, fc_hidden=4)
        assert isinstance(model, PathRank)
