"""Property-based tests (hypothesis) for the autodiff core.

These check algebraic identities of the tensor ops and the linearity of
the backward pass on randomly generated shapes and values.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.nn import Tensor
from repro.nn import functional as F

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)


def small_arrays(max_dims=3, max_side=4):
    return arrays(
        dtype=np.float64,
        shape=array_shapes(min_dims=1, max_dims=max_dims, min_side=1, max_side=max_side),
        elements=finite,
    )


@given(small_arrays())
@settings(max_examples=50, deadline=None)
def test_add_commutative(data):
    a, b = Tensor(data), Tensor(data[::-1].copy())
    np.testing.assert_allclose((a + b).data, (b + a).data)


@given(small_arrays())
@settings(max_examples=50, deadline=None)
def test_sum_grad_is_ones(data):
    t = Tensor(data, requires_grad=True)
    t.sum().backward()
    np.testing.assert_allclose(t.grad, np.ones_like(data))


@given(small_arrays(), finite)
@settings(max_examples=50, deadline=None)
def test_scalar_mul_grad_is_scalar(data, c):
    t = Tensor(data, requires_grad=True)
    (t * c).sum().backward()
    np.testing.assert_allclose(t.grad, np.full_like(data, c))


@given(small_arrays())
@settings(max_examples=50, deadline=None)
def test_tanh_bounded(data):
    out = Tensor(data).tanh()
    assert np.all(np.abs(out.data) <= 1.0)


@given(small_arrays())
@settings(max_examples=50, deadline=None)
def test_sigmoid_in_unit_interval(data):
    out = Tensor(data).sigmoid()
    assert np.all((out.data >= 0.0) & (out.data <= 1.0))


@given(small_arrays())
@settings(max_examples=50, deadline=None)
def test_sigmoid_symmetry(data):
    # sigmoid(-x) == 1 - sigmoid(x)
    left = Tensor(-data).sigmoid().data
    right = 1.0 - Tensor(data).sigmoid().data
    np.testing.assert_allclose(left, right, atol=1e-12)

@given(small_arrays())
@settings(max_examples=50, deadline=None)
def test_reshape_preserves_sum(data):
    t = Tensor(data)
    flat = t.reshape(int(np.prod(data.shape)))
    np.testing.assert_allclose(flat.sum().item(), t.sum().item(), rtol=1e-9)


@given(arrays(dtype=np.float64, shape=(3, 4), elements=finite),
       arrays(dtype=np.float64, shape=(3, 4), elements=finite))
@settings(max_examples=50, deadline=None)
def test_backward_linearity(a_data, b_data):
    """grad(sum(a+b)) accumulates exactly like grad(sum a) + grad(sum b)."""
    a = Tensor(a_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    (a + b).sum().backward()
    np.testing.assert_allclose(a.grad, np.ones_like(a_data))
    np.testing.assert_allclose(b.grad, np.ones_like(b_data))


@given(st.integers(2, 6), st.integers(1, 4), st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_concat_then_chunk_roundtrip(parts, rows, cols):
    rng = np.random.default_rng(parts * 100 + rows * 10 + cols)
    tensors = [Tensor(rng.normal(size=(rows, cols))) for _ in range(parts)]
    merged = F.concat(tensors, axis=1)
    pieces = F.chunk(merged, parts, axis=1)
    for original, piece in zip(tensors, pieces):
        np.testing.assert_allclose(piece.data, original.data)
