"""Neural-network substrate: numpy reverse-mode autodiff.

PyTorch is unavailable in the reproduction environment, so this package
implements the pieces PathRank needs — tensors with autograd, embedding
and linear layers, masked (bi)directional GRUs, losses, and optimisers —
with the conventional framework API surface.
"""

from repro.nn import functional  # noqa: F401  (re-export the namespace)
from repro.nn.fused import (
    CompiledPathRank,
    compiled_for,
    compiled_if_cached,
)
from repro.nn.grad_check import check_gradients, numerical_gradient
from repro.nn.layers import Dropout, Embedding, Linear, ReLU, Sequential, Sigmoid, Tanh
from repro.nn.loss import BCELoss, HuberLoss, MAELoss, MSELoss
from repro.nn.module import Module, Parameter
from repro.nn.optim import SGD, AdaGrad, Adam, Optimizer, clip_grad_norm
from repro.nn.rnn import GRU, LSTM, BiGRU, GRUCell, LSTMCell
from repro.nn.schedule import (
    ConstantLR,
    CosineLR,
    ExponentialLR,
    LinearWarmup,
    LRSchedule,
    StepLR,
)
from repro.nn.serialization import load_module, load_state, save_module, save_state
from repro.nn.tensor import Tensor, as_tensor, is_grad_enabled, no_grad

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "Dropout",
    "Sequential",
    "Tanh",
    "ReLU",
    "Sigmoid",
    "GRUCell",
    "GRU",
    "BiGRU",
    "LSTMCell",
    "LSTM",
    "MSELoss",
    "MAELoss",
    "HuberLoss",
    "BCELoss",
    "Optimizer",
    "SGD",
    "Adam",
    "AdaGrad",
    "clip_grad_norm",
    "LRSchedule",
    "ConstantLR",
    "StepLR",
    "ExponentialLR",
    "CosineLR",
    "LinearWarmup",
    "save_module",
    "load_module",
    "save_state",
    "load_state",
    "check_gradients",
    "numerical_gradient",
    "CompiledPathRank",
    "compiled_for",
    "compiled_if_cached",
]
