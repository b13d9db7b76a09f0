"""Weight initialisers.

All initialisers take an explicit :class:`numpy.random.Generator` so that
model construction is reproducible from the experiment seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["uniform", "normal", "xavier_uniform", "orthogonal", "zeros"]


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)


def uniform(rng: np.random.Generator, shape: tuple[int, ...], low: float, high: float) -> np.ndarray:
    if low > high:
        raise ValueError(f"uniform bounds inverted: [{low}, {high}]")
    return rng.uniform(low, high, size=shape)


def normal(rng: np.random.Generator, shape: tuple[int, ...], std: float = 1.0) -> np.ndarray:
    if std < 0:
        raise ValueError(f"standard deviation must be non-negative, got {std}")
    return rng.normal(0.0, std, size=shape)


def _fan_in_out(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) < 2:
        raise ValueError(f"xavier initialisation needs >= 2 dimensions, got shape {shape}")
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    return shape[0] * receptive, shape[1] * receptive


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Glorot & Bengio (2010) uniform initialisation."""
    fan_in, fan_out = _fan_in_out(shape)
    bound = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-bound, bound, size=shape)


def orthogonal(rng: np.random.Generator, shape: tuple[int, int], gain: float = 1.0) -> np.ndarray:
    """Orthogonal initialisation (Saxe et al., 2014), used for GRU recurrences."""
    if len(shape) != 2:
        raise ValueError(f"orthogonal initialisation needs a 2-D shape, got {shape}")
    rows, cols = shape
    flat = rng.normal(0.0, 1.0, size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q = q * np.sign(np.diag(r))  # make the decomposition unique
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]
