"""Composite tensor operations built on :mod:`repro.nn.tensor`.

These are the free functions a layer implementation reaches for:
concatenation, stacking, splitting, dropout, the embedding gather used by
PathRank's vertex-embedding matrix ``B``, and :func:`gru_sequence`, a
whole masked GRU recurrence as one graph node.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.nn.tensor import Tensor, _send, as_tensor, is_grad_enabled, stable_sigmoid

__all__ = [
    "concat",
    "stack",
    "dropout",
    "embedding_lookup",
    "chunk",
    "gru_sequence",
]


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with a slicing backward."""
    if not tensors:
        raise ShapeError("concat requires at least one tensor")
    parts = [as_tensor(t) for t in tensors]
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for part, start, stop in zip(parts, offsets[:-1], offsets[1:]):
            if part.requires_grad:
                index: list[slice] = [slice(None)] * g.ndim
                index[axis] = slice(int(start), int(stop))
                _send(part, np.ascontiguousarray(g[tuple(index)]))

    return Tensor._make(data, tuple(parts), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack same-shape tensors along a new axis."""
    if not tensors:
        raise ShapeError("stack requires at least one tensor")
    parts = [as_tensor(t) for t in tensors]
    first_shape = parts[0].shape
    for part in parts[1:]:
        if part.shape != first_shape:
            raise ShapeError(f"stack shapes differ: {first_shape} vs {part.shape}")
    data = np.stack([p.data for p in parts], axis=axis)

    def backward(g: np.ndarray) -> None:
        slices = np.moveaxis(g, axis, 0)
        for part, piece in zip(parts, slices):
            if part.requires_grad:
                _send(part, np.ascontiguousarray(piece))

    return Tensor._make(data, tuple(parts), backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: scale at train time so inference is identity."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    x = as_tensor(x)
    if not training or rate == 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(x.dtype) / keep
    return x * Tensor(mask)


def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``weight`` for integer ``indices`` of any shape.

    The backward pass scatter-adds, so repeated vertices in one batch
    accumulate gradient into the shared embedding row — the behaviour
    PathRank's fine-tuned variant (PR-A2) relies on.
    """
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu":
        raise TypeError(f"embedding indices must be integers, got dtype {idx.dtype}")
    if weight.ndim != 2:
        raise ShapeError(f"embedding weight must be 2-D, got shape {weight.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= weight.shape[0]):
        raise IndexError(
            f"embedding indices out of range [0, {weight.shape[0]}): "
            f"[{idx.min()}, {idx.max()}]"
        )
    return weight[idx]


def gru_sequence(
    gates_input: Tensor,
    weight_hh: Tensor,
    bias_hh: Tensor,
    mask: np.ndarray | None = None,
    h0: Tensor | None = None,
    reverse: bool = False,
) -> Tensor:
    """One direction of a masked GRU recurrence as a single graph node.

    ``gates_input`` is the hoisted input projection ``x W_ih + b_ih``,
    shape ``(steps, batch, 3 * hidden)``.  Each step applies the gate
    maths of :meth:`repro.nn.rnn.GRUCell.step`::

        r|z = sigmoid(gi_rz + h W_hrz + b_hrz)
        n   = tanh(gi_n + r * (h W_hn + b_hn))
        h'  = n + z * (h - n)                  # = (1 - z) * n + z * h

    Steps run first to last, or last to first when ``reverse``; where
    ``mask`` (``(steps, batch)``, 1 = real step) is 0 the previous state
    carries over.  Returns the ``(steps, batch, hidden)`` states, aligned
    with the input steps in either direction.

    The forward pass keeps ``r|z``, ``n`` and ``h W_hh + b_hh`` of every
    step only while a graph is being recorded.  The backward pass is
    hand-derived BPTT: the factors that do not depend on the incoming
    adjoint are computed for all steps at once (the mask folded in), so a
    step costs five multiplies, two adds and one ``(batch, 3H) x (3H, H)``
    product; ``dW_hh`` and ``db_hh`` are one stacked product and one
    reduction after the loop.
    """
    gi = gates_input.data
    if gi.ndim != 3 or gi.shape[0] == 0 or gi.shape[2] % 3:
        raise ShapeError(
            f"gates_input must be (steps >= 1, batch, 3 * hidden), got {gi.shape}")
    steps, batch, three_h = gi.shape
    hidden, two_h = three_h // 3, 2 * (three_h // 3)
    w, b = weight_hh.data, bias_hh.data
    if w.shape != (hidden, three_h) or b.shape != (three_h,):
        raise ShapeError(
            f"weight_hh {w.shape} / bias_hh {b.shape} do not fit hidden size {hidden}")
    parents = (gates_input, weight_hh, bias_hh) + ((h0,) if h0 is not None else ())
    h_init = np.zeros((batch, hidden)) if h0 is None else h0.data
    if h_init.shape != (batch, hidden):
        raise ShapeError(f"h0 must be ({batch}, {hidden}), got {h_init.shape}")
    keep = pad = None
    if mask is not None:
        if np.shape(mask) != (steps, batch):
            raise ShapeError(f"mask must be ({steps}, {batch}), got {np.shape(mask)}")
        keep = (np.asarray(mask) > 0.5)[:, :, None]
        pad = ~keep

    record = is_grad_enabled() and any(p.requires_grad for p in parents)
    dtype = np.result_type(gi, w)
    slots = steps if record else 1   # without a graph, one reused row
    gates_hidden = np.empty((slots, batch, three_h), dtype)
    gates_rz = np.empty((slots, batch, two_h), dtype)
    candidates = np.empty((slots, batch, hidden), dtype)
    states = np.empty((steps, batch, hidden), dtype)
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    h = h_init
    for t in order:
        slot = t if record else 0
        gh, rz, n = gates_hidden[slot], gates_rz[slot], candidates[slot]
        np.matmul(h, w, out=gh)
        gh += b
        np.add(gi[t, :, :two_h], gh[:, :two_h], out=rz)
        stable_sigmoid(rz, rz)
        np.multiply(rz[:, :hidden], gh[:, two_h:], out=n)
        n += gi[t, :, two_h:]
        np.tanh(n, out=n)
        new = states[t]
        np.subtract(h, n, out=new)
        new *= rz[:, hidden:]
        new += n
        if pad is not None:
            np.copyto(new, h, where=pad[t])
        h = new

    def backward(g: np.ndarray) -> None:
        # The state each step started from, aligned with the step.
        if reverse:
            prev = np.concatenate([states[1:], h_init[None]])
        else:
            prev = np.concatenate([h_init[None], states[:-1]])
        r, z = gates_rz[..., :hidden], gates_rz[..., hidden:]
        slope = gates_rz * (1.0 - gates_rz)            # sigmoid' of r|z
        to_z = (prev - candidates) * slope[..., hidden:]
        to_n = (1.0 - z) * (1.0 - candidates * candidates)
        to_r = gates_hidden[..., two_h:] * slope[..., :hidden]
        carry_gain = z
        if keep is not None:
            # A padded step passes its adjoint to the previous state whole.
            to_z *= keep
            to_n *= keep
            carry_gain = np.where(keep, z, 1.0)
        d_hidden = np.empty_like(gates_hidden)          # adjoint of h W_hh + b_hh
        d_cand = np.empty_like(candidates)              # adjoint of n's pre-activation
        w_t = w.T
        carry = np.zeros((batch, hidden), dtype)
        dh = np.empty_like(carry)
        for t in reversed(order):
            dgh, da_n = d_hidden[t], d_cand[t]
            np.add(g[t], carry, out=dh)
            np.multiply(dh, to_z[t], out=dgh[:, hidden:two_h])
            np.multiply(dh, to_n[t], out=da_n)
            np.multiply(da_n, to_r[t], out=dgh[:, :hidden])
            np.multiply(da_n, r[t], out=dgh[:, two_h:])
            np.multiply(dh, carry_gain[t], out=carry)
            carry += dgh @ w_t
        if gates_input.requires_grad:
            d_input = d_hidden.copy()
            d_input[..., two_h:] = d_cand
            _send(gates_input, d_input)
        if weight_hh.requires_grad:
            _send(weight_hh, prev.reshape(-1, hidden).T @ d_hidden.reshape(-1, three_h))
        if bias_hh.requires_grad:
            _send(bias_hh, d_hidden.sum(axis=(0, 1)))
        if h0 is not None:
            _send(h0, carry)

    return Tensor._make(states, parents, backward)


def chunk(x: Tensor, chunks: int, axis: int = -1) -> list[Tensor]:
    """Split ``x`` into ``chunks`` equal parts along ``axis``."""
    x = as_tensor(x)
    axis = axis % x.ndim
    size = x.shape[axis]
    if size % chunks != 0:
        raise ShapeError(f"cannot split axis of size {size} into {chunks} equal chunks")
    step = size // chunks
    pieces: list[Tensor] = []
    for i in range(chunks):
        index: list[slice] = [slice(None)] * x.ndim
        index[axis] = slice(i * step, (i + 1) * step)
        pieces.append(x[tuple(index)])
    return pieces
