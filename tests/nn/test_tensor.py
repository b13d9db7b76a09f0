"""Unit tests for the autodiff tensor core."""

import gc
import weakref

import numpy as np
import pytest

from repro.errors import GradientError, ShapeError
from repro.nn import GRU, Tensor, as_tensor, check_gradients, fused, is_grad_enabled, no_grad
from repro.nn.tensor import scatter_add_rows, stable_sigmoid, unbroadcast


def leaf(data, requires_grad=True):
    return Tensor(np.asarray(data, dtype=float), requires_grad=requires_grad)


class TestConstruction:
    def test_wraps_array(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float64

    def test_integer_input_promoted_to_float(self):
        t = Tensor([1, 2, 3])
        assert t.dtype.kind == "f"

    def test_bool_input_promoted_to_float(self):
        t = Tensor([True, False])
        assert t.dtype.kind == "f"

    def test_default_requires_grad_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(leaf([1.0]))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_item_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_item_rejects_vectors(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()

    def test_len(self):
        assert len(Tensor([[1.0], [2.0]])) == 2

    def test_len_of_scalar_raises(self):
        with pytest.raises(TypeError):
            len(Tensor(1.0))

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_as_tensor_wraps_scalars(self):
        assert as_tensor(2.0).item() == 2.0

    def test_detach_shares_data_drops_grad(self):
        t = leaf([1.0, 2.0])
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_copy_is_independent(self):
        t = leaf([1.0, 2.0])
        c = t.copy()
        c.data[0] = 9.0
        assert t.data[0] == 1.0


class TestArithmeticForward:
    def test_add(self):
        np.testing.assert_allclose((leaf([1, 2]) + leaf([3, 4])).data, [4, 6])

    def test_add_scalar(self):
        np.testing.assert_allclose((leaf([1, 2]) + 1.0).data, [2, 3])

    def test_radd(self):
        np.testing.assert_allclose((1.0 + leaf([1, 2])).data, [2, 3])

    def test_sub(self):
        np.testing.assert_allclose((leaf([3, 4]) - leaf([1, 2])).data, [2, 2])

    def test_rsub(self):
        np.testing.assert_allclose((10.0 - leaf([1, 2])).data, [9, 8])

    def test_mul(self):
        np.testing.assert_allclose((leaf([2, 3]) * leaf([4, 5])).data, [8, 15])

    def test_div(self):
        np.testing.assert_allclose((leaf([8, 9]) / leaf([2, 3])).data, [4, 3])

    def test_rdiv(self):
        np.testing.assert_allclose((6.0 / leaf([2, 3])).data, [3, 2])

    def test_neg(self):
        np.testing.assert_allclose((-leaf([1, -2])).data, [-1, 2])

    def test_pow(self):
        np.testing.assert_allclose((leaf([2, 3]) ** 2).data, [4, 9])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            leaf([2.0]) ** leaf([2.0])

    def test_matmul_2d(self):
        a = leaf([[1, 2], [3, 4]])
        b = leaf([[5, 6], [7, 8]])
        np.testing.assert_allclose((a @ b).data, np.array([[19, 22], [43, 50]]))

    def test_matmul_vector(self):
        a = leaf([[1, 2], [3, 4]])
        v = leaf([1, 1])
        np.testing.assert_allclose((a @ v).data, [3, 7])

    def test_matmul_inner(self):
        np.testing.assert_allclose((leaf([1, 2]) @ leaf([3, 4])).data, 11)


class TestBackwardBasics:
    def test_add_grads(self):
        a, b = leaf([1.0, 2.0]), leaf([3.0, 4.0])
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1, 1])
        np.testing.assert_allclose(b.grad, [1, 1])

    def test_mul_grads(self):
        a, b = leaf([1.0, 2.0]), leaf([3.0, 4.0])
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [3, 4])
        np.testing.assert_allclose(b.grad, [1, 2])

    def test_div_grads(self):
        a, b = leaf([4.0]), leaf([2.0])
        (a / b).backward()
        np.testing.assert_allclose(a.grad, [0.5])
        np.testing.assert_allclose(b.grad, [-1.0])

    def test_chain_rule(self):
        x = leaf([2.0])
        y = (x * x + x).sum()  # y = x^2 + x, dy/dx = 2x + 1
        y.backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_grad_accumulates_across_backwards(self):
        x = leaf([1.0])
        (x * 2.0).sum().backward()
        (x * 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_reused_tensor_accumulates_within_graph(self):
        x = leaf([3.0])
        y = x * x  # uses x twice
        y.backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_diamond_graph(self):
        # z = (x + 1) * (x + 2); dz/dx = 2x + 3
        x = leaf([1.0])
        z = (x + 1.0) * (x + 2.0)
        z.backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_backward_requires_grad(self):
        with pytest.raises(GradientError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_needs_seed(self):
        with pytest.raises(GradientError):
            leaf([1.0, 2.0]).backward()

    def test_backward_with_seed(self):
        x = leaf([1.0, 2.0])
        (x * 2.0).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(x.grad, [2.0, 20.0])

    def test_zero_grad(self):
        x = leaf([1.0])
        (x * 2.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_no_grad_through_constant(self):
        a = leaf([1.0])
        const = Tensor([2.0])
        (a * const).sum().backward()
        assert const.grad is None
        np.testing.assert_allclose(a.grad, [2.0])


class TestBroadcasting:
    def test_unbroadcast_identity(self):
        g = np.ones((3, 2))
        assert unbroadcast(g, (3, 2)) is g

    def test_unbroadcast_leading_axis(self):
        g = np.ones((4, 3))
        np.testing.assert_allclose(unbroadcast(g, (3,)), [4, 4, 4])

    def test_unbroadcast_kept_axis(self):
        g = np.ones((4, 3))
        np.testing.assert_allclose(unbroadcast(g, (1, 3)), [[4, 4, 4]])

    def test_broadcast_add_bias(self):
        x = leaf(np.ones((4, 3)))
        b = leaf(np.zeros(3))
        (x + b).sum().backward()
        np.testing.assert_allclose(b.grad, [4, 4, 4])

    def test_broadcast_mul_column(self):
        x = leaf(np.ones((2, 3)))
        c = leaf(np.ones((2, 1)))
        (x * c).sum().backward()
        np.testing.assert_allclose(c.grad, [[3], [3]])

    def test_broadcast_scalar_grad(self):
        x = leaf(np.ones((2, 2)))
        s = leaf(2.0)
        (x * s).sum().backward()
        np.testing.assert_allclose(s.grad, 4.0)


class TestUnaryOps:
    @pytest.mark.parametrize(
        "name",
        ["exp", "log", "sqrt", "tanh", "sigmoid"],
    )
    def test_forward_matches_numpy(self, name):
        x = np.array([0.5, 1.5, 2.5])
        t = getattr(leaf(x), name)()
        reference = {
            "exp": np.exp,
            "log": np.log,
            "sqrt": np.sqrt,
            "tanh": np.tanh,
            "sigmoid": lambda v: 1 / (1 + np.exp(-v)),
        }[name]
        np.testing.assert_allclose(t.data, reference(x), rtol=1e-12)

    @pytest.mark.parametrize("name", ["clip"])
    def test_gradient_matches_finite_differences(self, name):
        # The kinked op, at inputs away from its kinks; the smooth ones
        # are gradient-checked in test_grad_properties.
        t = leaf([-2.1, -0.7, 0.4, 1.3])
        check_gradients(lambda: (getattr(t, name)(-1.0, 1.0) ** 2).sum(), [t])

    def test_one_sigmoid_for_tensor_and_fused_kernel(self):
        x = np.linspace(-30.0, 30.0, 61)
        assert fused.stable_sigmoid is stable_sigmoid
        np.testing.assert_array_equal(leaf(x).sigmoid().data, stable_sigmoid(x))
        out = x.copy()
        assert stable_sigmoid(out, out) is out
        np.testing.assert_array_equal(out, stable_sigmoid(x))

    def test_sigmoid_extreme_values_stable(self):
        t = leaf([-1000.0, 1000.0]).sigmoid()
        np.testing.assert_allclose(t.data, [0.0, 1.0], atol=1e-12)
        assert np.all(np.isfinite(t.data))

    def test_clip_grad_masks_outside(self):
        x = leaf([-2.0, 0.5, 2.0])
        x.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_clip_inverted_bounds(self):
        with pytest.raises(ValueError):
            leaf([1.0]).clip(1.0, -1.0)


class TestReductions:
    def test_sum_all(self):
        assert leaf([[1.0, 2.0], [3.0, 4.0]]).sum().item() == 10.0

    def test_sum_axis(self):
        t = leaf([[1.0, 2.0], [3.0, 4.0]]).sum(axis=0)
        np.testing.assert_allclose(t.data, [4, 6])

    def test_sum_keepdims(self):
        t = leaf([[1.0, 2.0]]).sum(axis=1, keepdims=True)
        assert t.shape == (1, 1)

    def test_sum_axis_backward(self):
        x = leaf([[1.0, 2.0], [3.0, 4.0]])
        x.sum(axis=1).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(x.grad, [[1, 1], [10, 10]])

    def test_mean(self):
        assert leaf([2.0, 4.0]).mean().item() == 3.0

    def test_mean_grad(self):
        x = leaf([2.0, 4.0])
        x.mean().backward()
        np.testing.assert_allclose(x.grad, [0.5, 0.5])

    def test_max_all(self):
        assert leaf([[1.0, 5.0], [3.0, 2.0]]).max().item() == 5.0

    def test_max_grad_routes_to_argmax(self):
        x = leaf([1.0, 5.0, 3.0])
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0, 1, 0])

    def test_max_grad_splits_ties(self):
        x = leaf([5.0, 5.0])
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.5, 0.5])

    def test_min(self):
        assert leaf([3.0, 1.0, 2.0]).min().item() == 1.0

    def test_mean_axis_tuple(self):
        t = leaf(np.ones((2, 3, 4))).mean(axis=(0, 2))
        np.testing.assert_allclose(t.data, [1, 1, 1])


class TestShapeOps:
    def test_reshape_roundtrip_grad(self):
        x = leaf(np.arange(6.0))
        x.reshape(2, 3).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(6))

    def test_reshape_accepts_tuple(self):
        assert leaf(np.arange(6.0)).reshape((3, 2)).shape == (3, 2)

    def test_transpose_default_reverses(self):
        assert leaf(np.ones((2, 3, 4))).transpose().shape == (4, 3, 2)

    def test_transpose_explicit_axes_grad(self):
        x = leaf(np.arange(6.0).reshape(2, 3))
        y = x.transpose(1, 0)
        y.backward(np.arange(6.0).reshape(3, 2))
        np.testing.assert_allclose(x.grad, np.arange(6.0).reshape(3, 2).T)

    def test_T_alias(self):
        assert leaf(np.ones((2, 3))).T.shape == (3, 2)

    def test_getitem_int(self):
        x = leaf([[1.0, 2.0], [3.0, 4.0]])
        row = x[1]
        np.testing.assert_allclose(row.data, [3, 4])

    def test_getitem_slice_backward(self):
        x = leaf(np.arange(5.0))
        x[1:3].sum().backward()
        np.testing.assert_allclose(x.grad, [0, 1, 1, 0, 0])

    def test_getitem_negative_step(self):
        x = leaf(np.arange(4.0))
        y = x[::-1]
        np.testing.assert_allclose(y.data, [3, 2, 1, 0])
        y.backward(np.array([1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_allclose(x.grad, [4, 3, 2, 1])

    def test_getitem_integer_array_duplicates_accumulate(self):
        x = leaf(np.zeros((3, 2)))
        x[np.array([0, 0, 2])].sum().backward()
        np.testing.assert_allclose(x.grad, [[2, 2], [0, 0], [1, 1]])

    def test_getitem_nested_integer_arrays_accumulate(self):
        x = leaf(np.zeros((3, 2)))
        x[np.array([[1, 1], [1, 0]]), np.array([0, 1])].sum().backward()
        np.testing.assert_allclose(x.grad, [[0, 1], [2, 1], [0, 0]])

    @pytest.mark.parametrize("index", [
        1, -1, np.int64(2), slice(1, 3), slice(None, None, -2), (1, slice(0, 2)),
        (slice(None), 2), (Ellipsis, 1), (None, 0), (slice(1, None), None, -1),
    ], ids=repr)
    def test_getitem_basic_index_gradient_is_the_scatter_add(self, index):
        data = np.arange(24.0).reshape(4, 3, 2)
        x = leaf(data)
        seed = np.random.default_rng(0).normal(size=data[index].shape)
        x[index].backward(seed)
        expected = np.zeros_like(data)
        np.add.at(expected, index, seed)
        np.testing.assert_array_equal(x.grad, expected)

    @pytest.mark.parametrize("shape,index", [
        ((7, 5), np.array([3, 3, 0, 6, 3, 0, 3])),
        ((7, 5), np.array([[1, 4, 4, 1], [4, 0, 1, 1], [6, 6, 6, 2]])),
        ((7, 3, 2), np.array([[2, 5], [5, 2], [2, 2]])),
        ((7,), np.array([1, 1, 6, -1])),
        ((7, 5), np.array([-1, 6, -7, 0], dtype=np.int32)),
        ((7, 5), np.array([2, 2, 5], dtype=np.uint16)),
        ((0, 5), np.array([], dtype=np.int64)),
    ], ids=["repeats", "batch_by_time", "rows_of_matrices", "vector",
            "negative", "unsigned", "empty"])
    def test_getitem_row_lookup_gradient_equals_row_wise_scatter(self, shape,
                                                                  index):
        data = np.random.default_rng(1).normal(size=shape)
        x = leaf(data)
        seed = np.random.default_rng(2).normal(size=data[index].shape)
        x.take_rows(index).backward(seed)
        expected = np.zeros_like(data)
        np.add.at(expected, index, seed)
        np.testing.assert_array_equal(x.grad, expected)

    def test_getitem_row_lookup_on_a_non_contiguous_tensor(self):
        data = np.arange(12.0).reshape(3, 4).T
        x = leaf(data)
        seed = np.random.default_rng(3).normal(size=(3, 3))
        x[np.array([0, 3, 0])].backward(seed)
        expected = np.zeros_like(data)
        np.add.at(expected, np.array([0, 3, 0]), seed)
        np.testing.assert_array_equal(x.grad, expected)
        with pytest.raises(ValueError, match="C-contiguous"):
            scatter_add_rows(np.zeros((4, 3)).T, np.array([0]), np.ones((1, 4)))

    def test_take_rows_requires_integers(self):
        with pytest.raises(TypeError):
            leaf(np.zeros((3, 2))).take_rows(np.array([0.5]))

    def test_take_rows_matches_getitem(self):
        x = leaf(np.arange(6.0).reshape(3, 2))
        np.testing.assert_allclose(x.take_rows(np.array([2, 0])).data, [[4, 5], [0, 1]])


class TestGraphLifetime:
    """A backward closure never references its own output, so a graph
    holds no reference cycle and dies with its last reference."""

    def test_loss_is_freed_without_the_cycle_collector(self):
        rng = np.random.default_rng(0)
        gru = GRU(3, 4, rng=0)
        x = leaf(rng.normal(size=(5, 2, 3)))
        mask = np.ones((5, 2))
        mask[3:, 1] = 0.0
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            outputs, final = gru(x, mask=mask)
            loss = ((outputs * outputs).mean() + final.sigmoid().sum()
                    + x[1:, 0].sum() + x[np.array([0, 0])].sum())
            loss.backward()
            refs = [weakref.ref(t) for t in (loss, outputs, final)]
            del loss, outputs, final
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            if was_enabled:
                gc.enable()


class TestNoGrad:
    def test_no_grad_suppresses_graph(self):
        x = leaf([1.0])
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert y.is_leaf

    def test_flag_restored_after_exit(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_flag_restored_on_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_matmul_grads_match_finite_difference(self):
        rng = np.random.default_rng(7)
        a = leaf(rng.normal(size=(3, 4)))
        b = leaf(rng.normal(size=(4, 2)))
        from repro.nn import check_gradients

        check_gradients(lambda: ((a @ b) * (a @ b)).mean(), [a, b])
