"""Tests for the loss, the optimiser, gradient clipping, and serialization."""

import numpy as np
import pytest

from repro.errors import SerializationError, ShapeError
from repro.nn import (
    Adam,
    Linear,
    MSELoss,
    Parameter,
    Tensor,
    clip_grad_norm,
    load_state,
    save_state,
)


def leaf(data):
    return Tensor(np.asarray(data, dtype=float), requires_grad=True)


class TestLosses:
    def test_mse_value(self):
        loss = MSELoss()(leaf([1.0, 3.0]), Tensor([0.0, 0.0]))
        assert loss.item() == pytest.approx(5.0)

    def test_mse_zero_at_match(self):
        assert MSELoss()(leaf([1.0, 2.0]), Tensor([1.0, 2.0])).item() == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            MSELoss()(leaf([1.0, 2.0]), Tensor([1.0]))

    def test_mse_gradient(self):
        x = leaf([2.0])
        MSELoss()(x, Tensor([0.0])).backward()
        np.testing.assert_allclose(x.grad, [4.0])


class TestAdam:
    def test_first_step_magnitude(self):
        # With bias correction, the first Adam step is ~lr * sign(grad).
        p = Parameter(np.array([0.0]))
        p.grad = np.array([10.0])
        Adam([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [-0.1], atol=1e-6)

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0]))
        opt = Adam([p], lr=0.3)
        for _ in range(300):
            opt.zero_grad()
            ((p - 2.0) ** 2).sum().backward()
            opt.step()
        np.testing.assert_allclose(p.data, [2.0], atol=1e-3)

    def test_weight_decay(self):
        # A zero gradient plus decay 0.5 on p = 1 makes the first step
        # ~lr * sign(0.5), as for any gradient.
        p = Parameter(np.array([1.0]))
        p.grad = np.array([0.0])
        Adam([p], lr=0.1, weight_decay=0.5).step()
        np.testing.assert_allclose(p.data, [0.9], atol=1e-6)

    def test_skips_frozen(self):
        p = Parameter(np.array([1.0]))
        p.grad = np.array([1.0])
        p.requires_grad = False
        Adam([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_zero_grad(self):
        p = Parameter(np.array([1.0]))
        p.grad = np.array([1.0])
        opt = Adam([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None

    def test_validation(self):
        p = [Parameter(np.zeros(1))]
        with pytest.raises(ValueError):
            Adam([], lr=0.1)
        with pytest.raises(ValueError):
            Adam(p, lr=-1.0)
        with pytest.raises(ValueError):
            Adam(p, betas=(1.0, 0.999))
        with pytest.raises(ValueError):
            Adam(p, eps=0.0)
        with pytest.raises(ValueError):
            Adam(p, weight_decay=-1.0)


class TestClipGradNorm:
    def test_no_clip_below_threshold(self):
        p = Parameter(np.zeros(3))
        p.grad = np.array([0.1, 0.1, 0.1])
        norm = clip_grad_norm([p], max_norm=10.0)
        assert norm == pytest.approx(np.sqrt(0.03))
        np.testing.assert_allclose(p.grad, [0.1, 0.1, 0.1])

    def test_clips_above_threshold(self):
        p = Parameter(np.zeros(1))
        p.grad = np.array([10.0])
        clip_grad_norm([p], max_norm=1.0)
        np.testing.assert_allclose(p.grad, [1.0], rtol=1e-6)

    def test_handles_missing_grads(self):
        assert clip_grad_norm([Parameter(np.zeros(1))], max_norm=1.0) == 0.0

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError):
            clip_grad_norm([], max_norm=0.0)


class TestSerialization:
    def test_state_roundtrip(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        state = {"w": np.arange(4.0)}
        save_state(state, path, metadata={"epoch": 3})
        loaded, meta = load_state(path)
        np.testing.assert_allclose(loaded["w"], state["w"])
        assert meta["epoch"] == 3

    def test_module_roundtrip(self, tmp_path):
        path = tmp_path / "model.npz"
        model = Linear(3, 2, rng=0)
        save_state(model.state_dict(), path)
        other = Linear(3, 2, rng=99)
        other.load_state_dict(load_state(path)[0])
        np.testing.assert_allclose(other.weight.data, model.weight.data)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_state(tmp_path / "nope.npz")

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(SerializationError):
            save_state({"__repro_meta__": np.zeros(1)}, tmp_path / "x.npz")

    def test_non_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "raw.npz"
        np.savez(path, w=np.zeros(1))
        with pytest.raises(SerializationError):
            load_state(path)

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "m.npz"
        save_state({"w": np.zeros(1)}, path)
        assert path.exists()
