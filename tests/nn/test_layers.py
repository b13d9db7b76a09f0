"""Unit tests for Linear/Embedding/Dropout and Module."""

import numpy as np
import pytest

from repro.errors import SerializationError, ShapeError
from repro.nn import (
    Dropout,
    Embedding,
    Linear,
    Module,
    Parameter,
    Tensor,
    check_gradients,
)


class TestLinear:
    def test_shapes(self):
        layer = Linear(4, 3, rng=0)
        out = layer(Tensor(np.zeros((5, 4))))
        assert out.shape == (5, 3)

    def test_no_bias(self):
        layer = Linear(4, 3, bias=False, rng=0)
        assert layer.bias is None
        out = layer(Tensor(np.zeros((5, 4))))
        np.testing.assert_allclose(out.data, np.zeros((5, 3)))

    def test_matches_manual_affine(self):
        layer = Linear(2, 2, rng=0)
        x = np.array([[1.0, 2.0]])
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected)

    def test_wrong_input_dim(self):
        with pytest.raises(ShapeError):
            Linear(4, 3, rng=0)(Tensor(np.zeros((5, 5))))

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_deterministic_given_seed(self):
        a, b = Linear(4, 3, rng=42), Linear(4, 3, rng=42)
        np.testing.assert_allclose(a.weight.data, b.weight.data)

    def test_gradcheck(self):
        layer = Linear(3, 2, rng=1)
        x = Tensor(np.random.default_rng(0).normal(size=(4, 3)), requires_grad=True)
        check_gradients(lambda: (layer(x) ** 2).mean(), [x, layer.weight, layer.bias])


class TestEmbedding:
    def test_lookup_shape(self):
        emb = Embedding(10, 4, rng=0)
        out = emb(np.array([[1, 2], [3, 4], [5, 6]]))
        assert out.shape == (3, 2, 4)

    def test_from_pretrained_copies(self):
        matrix = np.arange(8.0).reshape(4, 2)
        emb = Embedding.from_pretrained(matrix)
        matrix[0, 0] = 99.0
        assert emb.weight.data[0, 0] == 0.0

    def test_from_pretrained_frozen(self):
        emb = Embedding.from_pretrained(np.zeros((4, 2)), trainable=False)
        assert not emb.weight.requires_grad

    def test_from_pretrained_rejects_1d(self):
        with pytest.raises(ShapeError):
            Embedding.from_pretrained(np.zeros(4))

    def test_frozen_embedding_gets_no_grad(self):
        emb = Embedding.from_pretrained(np.ones((4, 2)), trainable=False)
        out = emb(np.array([0, 1]))
        (out.sum() * 1.0).backward() if out.requires_grad else None
        assert emb.weight.grad is None

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            Embedding(0, 4)


class TestDropout:
    def test_eval_is_identity(self):
        layer = Dropout(0.5, rng=0)
        layer.eval()
        x = Tensor(np.ones(100))
        assert layer(x) is x

    def test_train_drops(self):
        layer = Dropout(0.5, rng=0)
        out = layer(Tensor(np.ones(1000)))
        assert (out.data == 0).sum() > 300

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.5)


class TestModule:
    def make_model(self):
        class Tiny(Module):
            def __init__(self):
                super().__init__()
                self.fc = Linear(2, 2, rng=0)
                self.scale = Parameter(np.ones(2))

            def forward(self, x):
                return self.fc(x) * self.scale

        return Tiny()

    def test_named_parameters_dotted(self):
        model = self.make_model()
        names = {name for name, _ in model.named_parameters()}
        assert names == {"scale", "fc.weight", "fc.bias"}

    def test_parameters_trainable_filter(self):
        model = self.make_model()
        model.fc.weight.freeze()
        assert len(model.parameters()) == 3
        assert len(model.parameters(trainable_only=True)) == 2

    def test_train_eval_propagates(self):
        model = self.make_model()
        model.eval()
        assert not model.fc.training
        model.train()
        assert model.fc.training

    def test_zero_grad(self):
        model = self.make_model()
        out = model(Tensor(np.ones((1, 2))))
        out.sum().backward()
        assert model.fc.weight.grad is not None
        model.zero_grad()
        assert model.fc.weight.grad is None

    def test_state_dict_roundtrip(self):
        model = self.make_model()
        state = model.state_dict()
        other = self.make_model()
        other.fc.weight.data[:] = 0
        other.load_state_dict(state)
        np.testing.assert_allclose(other.fc.weight.data, model.fc.weight.data)

    def test_state_dict_is_a_copy(self):
        model = self.make_model()
        state = model.state_dict()
        state["scale"][0] = 99.0
        assert model.scale.data[0] == 1.0

    def test_load_strict_missing_key(self):
        model = self.make_model()
        state = model.state_dict()
        del state["scale"]
        with pytest.raises(SerializationError):
            model.load_state_dict(state)

    def test_load_strict_unexpected_key(self):
        model = self.make_model()
        state = model.state_dict()
        state["bogus"] = np.zeros(1)
        with pytest.raises(SerializationError):
            model.load_state_dict(state)

    def test_load_non_strict_ignores_extras(self):
        model = self.make_model()
        state = model.state_dict()
        state["bogus"] = np.zeros(1)
        model.load_state_dict(state, strict=False)

    def test_load_shape_mismatch(self):
        model = self.make_model()
        state = model.state_dict()
        state["scale"] = np.zeros(3)
        with pytest.raises(SerializationError):
            model.load_state_dict(state)

    def test_parameter_freeze_unfreeze(self):
        p = Parameter(np.ones(2))
        p.freeze()
        assert not p.requires_grad
        p.unfreeze()
        assert p.requires_grad
