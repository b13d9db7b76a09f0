"""Property-based gradient checks: random composed expressions.

Hypothesis builds random small expressions from the op vocabulary and
verifies the autodiff gradients against central finite differences —
the strongest single guarantee the substrate offers PathRank.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, check_gradients
from repro.nn import functional as F

# Ops applied elementwise to a tensor (name, callable, input transform to
# keep the op's domain and finite differences well-conditioned).
_UNARY_OPS = [
    ("tanh", lambda t: t.tanh(), lambda x: x),
    ("sigmoid", lambda t: t.sigmoid(), lambda x: x),
    ("exp", lambda t: t.exp(), lambda x: np.clip(x, -2.0, 2.0)),
    ("log", lambda t: t.log(), lambda x: np.abs(x) + 0.5),
    ("sqrt", lambda t: t.sqrt(), lambda x: np.abs(x) + 0.5),
    ("square", lambda t: t * t, lambda x: x),
    ("scale", lambda t: t * 1.7 + 0.3, lambda x: x),
]


@given(
    st.integers(0, len(_UNARY_OPS) - 1),
    st.integers(0, len(_UNARY_OPS) - 1),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_random_unary_compositions_gradcheck(op1, op2, rows, cols, seed):
    name1, f1, dom1 = _UNARY_OPS[op1]
    name2, f2, dom2 = _UNARY_OPS[op2]
    rng = np.random.default_rng(seed)
    data = dom1(dom2(rng.normal(size=(rows, cols))))
    x = Tensor(data, requires_grad=True)

    def forward():
        return (f2(f1(x))).sum()

    check_gradients(forward, [x], eps=1e-6, atol=1e-4, rtol=1e-3)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_matmul_chain_gradcheck(a, b, c, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(a, b)), requires_grad=True)
    w = Tensor(rng.normal(size=(b, c)), requires_grad=True)

    def forward():
        return ((x @ w).tanh() ** 2).mean()

    check_gradients(forward, [x, w], atol=1e-4, rtol=1e-3)


@given(st.integers(2, 5), st.integers(1, 3), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_softmax_weighted_sum_gradcheck(n, d, seed):
    rng = np.random.default_rng(seed)
    logits = Tensor(rng.normal(size=(n,)), requires_grad=True)
    values = Tensor(rng.normal(size=(n, d)), requires_grad=True)

    def forward():
        exps = (logits - float(logits.data.max())).exp()
        weights = (exps / exps.sum()).reshape(n, 1)
        return (values * weights).sum()

    check_gradients(forward, [logits, values], atol=1e-4, rtol=1e-3)


@given(st.integers(1, 5), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_masked_mean_gradcheck(batch, seed):
    """The exact pooling PathRank uses: masked mean over time."""
    rng = np.random.default_rng(seed)
    steps = 4
    x = Tensor(rng.normal(size=(steps, batch, 3)), requires_grad=True)
    lengths = rng.integers(1, steps + 1, size=batch)
    mask = np.zeros((steps, batch))
    for column, length in enumerate(lengths):
        mask[:length, column] = 1.0

    def forward():
        weighted = x * Tensor(mask[:, :, None])
        totals = weighted.sum(axis=0)
        counts = Tensor(np.maximum(mask.sum(axis=0), 1.0)[:, None])
        return ((totals / counts) ** 2).mean()

    check_gradients(forward, [x], atol=1e-4, rtol=1e-3)


@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_embedding_grad_row_support(vocab, dim, seed):
    """Gradient lands exactly on the rows that were looked up."""
    rng = np.random.default_rng(seed)
    weight = Tensor(rng.normal(size=(vocab, dim)), requires_grad=True)
    indices = rng.integers(0, vocab, size=5)
    F.embedding_lookup(weight, indices).sum().backward()
    touched = set(indices.tolist())
    for row in range(vocab):
        row_grad = weight.grad[row]
        if row in touched:
            assert np.any(row_grad != 0.0) or dim == 0
        else:
            np.testing.assert_allclose(row_grad, 0.0)
