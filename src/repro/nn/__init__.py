"""Neural-network substrate: numpy reverse-mode autodiff.

PyTorch is unavailable in the reproduction environment, so this package
implements the pieces PathRank needs — tensors with autograd, embedding
and linear layers, masked (bi)directional GRUs, the MSE loss and the
Adam optimiser — with the conventional framework API surface.
"""

from repro.nn import functional  # noqa: F401  (re-export the namespace)
from repro.nn.fused import (
    CompiledPathRank,
    compiled_for,
    compiled_if_cached,
)
from repro.nn.grad_check import check_gradients, numerical_gradient
from repro.nn.layers import Dropout, Embedding, Linear
from repro.nn.loss import MSELoss
from repro.nn.module import Module, Parameter
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.rnn import GRU, BiGRU, GRUCell
from repro.nn.serialization import load_state, save_state
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
    "GRUCell",
    "GRU",
    "BiGRU",
    "MSELoss",
    "Adam",
    "clip_grad_norm",
    "save_state",
    "load_state",
    "check_gradients",
    "numerical_gradient",
    "CompiledPathRank",
    "compiled_for",
    "compiled_if_cached",
]
