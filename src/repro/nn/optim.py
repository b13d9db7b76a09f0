"""The PathRank trainer's optimiser: Adam over
:class:`~repro.nn.module.Parameter` lists, plus global-norm gradient
clipping.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.nn.module import Parameter

__all__ = ["Adam", "clip_grad_norm"]


def clip_grad_norm(parameters: Sequence[Parameter], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm, which trainers log to detect exploding
    gradients in the recurrent stack.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for p in parameters:
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


class Adam:
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        params = list(parameters)
        if not params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        if weight_decay < 0.0:
            raise ValueError(f"weight decay must be non-negative, got {weight_decay}")
        self.parameters = params
        self.lr = float(lr)
        self.beta1, self.beta2 = float(beta1), float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._step_count = 0
        self._first: dict[int, np.ndarray] = {}
        self._second: dict[int, np.ndarray] = {}

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for p in self.parameters:
            if p.grad is None or not p.requires_grad:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            first = self._first.get(id(p), np.zeros_like(p.data))
            second = self._second.get(id(p), np.zeros_like(p.data))
            first = self.beta1 * first + (1.0 - self.beta1) * grad
            second = self.beta2 * second + (1.0 - self.beta2) * grad * grad
            self._first[id(p)] = first
            self._second[id(p)] = second
            update = (first / bias1) / (np.sqrt(second / bias2) + self.eps)
            p.data = p.data - self.lr * update
