"""Unit tests for composite ops in repro.nn.functional."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn import Tensor, check_gradients
from repro.nn import functional as F


def leaf(data):
    return Tensor(np.asarray(data, dtype=float), requires_grad=True)


class TestConcatStack:
    def test_concat_forward(self):
        out = F.concat([leaf([[1.0]]), leaf([[2.0]])], axis=0)
        np.testing.assert_allclose(out.data, [[1], [2]])

    def test_concat_axis1(self):
        out = F.concat([leaf([[1.0], [2.0]]), leaf([[3.0], [4.0]])], axis=1)
        np.testing.assert_allclose(out.data, [[1, 3], [2, 4]])

    def test_concat_backward_splits(self):
        a, b = leaf([1.0, 2.0]), leaf([3.0])
        F.concat([a, b]).backward(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(a.grad, [1, 2])
        np.testing.assert_allclose(b.grad, [3])

    def test_concat_empty_rejected(self):
        with pytest.raises(ShapeError):
            F.concat([])

    def test_stack_forward(self):
        out = F.stack([leaf([1.0, 2.0]), leaf([3.0, 4.0])])
        assert out.shape == (2, 2)

    def test_stack_new_axis_position(self):
        out = F.stack([leaf([1.0, 2.0]), leaf([3.0, 4.0])], axis=1)
        np.testing.assert_allclose(out.data, [[1, 3], [2, 4]])

    def test_stack_backward(self):
        a, b = leaf([1.0, 2.0]), leaf([3.0, 4.0])
        F.stack([a, b]).sum().backward()
        np.testing.assert_allclose(a.grad, [1, 1])
        np.testing.assert_allclose(b.grad, [1, 1])

    def test_stack_shape_mismatch(self):
        with pytest.raises(ShapeError):
            F.stack([leaf([1.0]), leaf([1.0, 2.0])])

    def test_concat_gradcheck(self):
        rng = np.random.default_rng(0)
        a, b = leaf(rng.normal(size=(2, 3))), leaf(rng.normal(size=(4, 3)))
        check_gradients(lambda: (F.concat([a, b], axis=0) ** 2).mean(), [a, b])


class TestDropout:
    def test_eval_mode_identity(self):
        x = leaf(np.ones(100))
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert out is x

    def test_zero_rate_identity(self):
        x = leaf(np.ones(100))
        assert F.dropout(x, 0.0, np.random.default_rng(0), training=True) is x

    def test_train_mode_zeroes_and_scales(self):
        x = leaf(np.ones(10000))
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=True)
        values = set(np.unique(np.round(out.data, 6)))
        assert values <= {0.0, 2.0}
        # Expectation preserved within tolerance.
        assert abs(out.data.mean() - 1.0) < 0.05

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            F.dropout(leaf([1.0]), 1.0, np.random.default_rng(0))


class TestEmbeddingLookup:
    def test_gathers_rows(self):
        w = leaf(np.arange(6.0).reshape(3, 2))
        out = F.embedding_lookup(w, np.array([2, 0]))
        np.testing.assert_allclose(out.data, [[4, 5], [0, 1]])

    def test_nd_indices(self):
        w = leaf(np.arange(6.0).reshape(3, 2))
        out = F.embedding_lookup(w, np.array([[0, 1], [2, 2]]))
        assert out.shape == (2, 2, 2)

    def test_duplicate_indices_accumulate_grad(self):
        w = leaf(np.zeros((3, 2)))
        F.embedding_lookup(w, np.array([1, 1, 1])).sum().backward()
        np.testing.assert_allclose(w.grad, [[0, 0], [3, 3], [0, 0]])

    def test_rejects_float_indices(self):
        with pytest.raises(TypeError):
            F.embedding_lookup(leaf(np.zeros((3, 2))), np.array([0.5]))

    def test_rejects_out_of_range(self):
        with pytest.raises(IndexError):
            F.embedding_lookup(leaf(np.zeros((3, 2))), np.array([3]))

    def test_rejects_1d_weight(self):
        with pytest.raises(ShapeError):
            F.embedding_lookup(leaf(np.zeros(3)), np.array([0]))


class TestChunk:
    def test_splits_evenly(self):
        pieces = F.chunk(leaf(np.arange(12.0).reshape(2, 6)), 3, axis=-1)
        assert [p.shape for p in pieces] == [(2, 2)] * 3

    def test_uneven_split_rejected(self):
        with pytest.raises(ShapeError):
            F.chunk(leaf(np.zeros((2, 5))), 2, axis=1)

    def test_chunks_cover_input(self):
        x = leaf(np.arange(6.0).reshape(1, 6))
        pieces = F.chunk(x, 2, axis=1)
        np.testing.assert_allclose(
            np.concatenate([p.data for p in pieces], axis=1), x.data
        )

    def test_chunk_backward(self):
        x = leaf(np.arange(4.0))
        a, b = F.chunk(x, 2, axis=0)
        (a * 2.0 + b * 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, [2, 2, 3, 3])
