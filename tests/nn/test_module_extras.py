"""Additional Module coverage: traversal, counting, repr."""

import numpy as np
import pytest

from repro.nn import Linear, Module, Parameter


class Inner(Module):
    def __init__(self):
        super().__init__()
        self.first = Linear(2, 3, rng=0)
        self.second = Linear(3, 1, rng=1)

    def forward(self, x):
        return self.second(self.first(x).tanh())


class Nested(Module):
    def __init__(self):
        super().__init__()
        self.inner = Inner()
        self.bias = Parameter(np.zeros(1))

    def forward(self, x):
        return self.inner(x) + self.bias


class TestModuleTraversal:
    def test_modules_walks_depth_first(self):
        model = Nested()
        assert list(model.modules()) == [
            model, model.inner, model.inner.first, model.inner.second]

    def test_num_parameters_counts_scalars(self):
        model = Nested()
        expected = (2 * 3 + 3) + (3 * 1 + 1) + 1
        assert model.num_parameters() == expected

    def test_num_parameters_trainable_only(self):
        model = Nested()
        model.inner.first.weight.freeze()
        assert model.num_parameters(trainable_only=True) == \
            model.num_parameters() - 2 * 3

    def test_repr_mentions_children(self):
        assert "children" in repr(Nested())

    def test_forward_not_implemented_on_base(self):
        with pytest.raises(NotImplementedError):
            Module()(1)
