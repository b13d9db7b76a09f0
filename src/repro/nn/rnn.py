"""Recurrent layers: GRU cell/stack and bidirectional GRU.

PathRank consumes a candidate path as a sequence of vertex embeddings and
summarises it with a bidirectional GRU (the two GRU rows in the paper's
architecture figure).  Sequences in a batch have different lengths, so
all recurrences here are *masked*: padded steps propagate the previous
hidden state unchanged, which makes the final hidden state of every
sequence the state at its own last real vertex.

:class:`GRU` runs a whole direction as one autograd node
(:func:`repro.nn.functional.gru_sequence`, hand-derived BPTT), so a
forward pass records the same handful of nodes at any sequence length;
the backward direction of :class:`BiGRU` is the same node with
``reverse=True``.  :meth:`GRUCell.step` keeps the gate maths as
primitive ops: the reference the fused node is tested against.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor
from repro.rng import RngLike, make_rng, spawn

__all__ = ["GRUCell", "GRU", "BiGRU"]


def _check_step_inputs(x: Tensor, h: Tensor, input_size: int, hidden_size: int) -> None:
    if x.ndim != 2 or x.shape[1] != input_size:
        raise ShapeError(f"cell expected input (batch, {input_size}), got {x.shape}")
    if h.ndim != 2 or h.shape[1] != hidden_size:
        raise ShapeError(f"cell expected hidden (batch, {hidden_size}), got {h.shape}")
    if x.shape[0] != h.shape[0]:
        raise ShapeError(f"batch mismatch between input {x.shape} and hidden {h.shape}")


def _as_mask(mask: np.ndarray, steps: int, batch: int) -> np.ndarray:
    mask = np.asarray(mask, dtype=float)
    if mask.shape != (steps, batch):
        raise ShapeError(f"mask must have shape ({steps}, {batch}), got {mask.shape}")
    return mask


class GRUCell(Module):
    """Single-step gated recurrent unit (Cho et al., 2014).

    Uses the standard gating formulation::

        r = sigmoid(x W_ir + b_ir + h W_hr + b_hr)
        z = sigmoid(x W_iz + b_iz + h W_hz + b_hz)
        n = tanh(x W_in + b_in + r * (h W_hn + b_hn))
        h' = (1 - z) * n + z * h
    """

    def __init__(self, input_size: int, hidden_size: int, rng: RngLike = None) -> None:
        super().__init__()
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError(f"sizes must be positive, got ({input_size}, {hidden_size})")
        generator = make_rng(rng)
        input_rng, hidden_rng = spawn(generator, 2)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(init.xavier_uniform(input_rng, (input_size, 3 * hidden_size)))
        recurrent = np.concatenate(
            [init.orthogonal(hidden_rng, (hidden_size, hidden_size)) for _ in range(3)], axis=1
        )
        self.weight_hh = Parameter(recurrent)
        self.bias_ih = Parameter(np.zeros(3 * hidden_size))
        self.bias_hh = Parameter(np.zeros(3 * hidden_size))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        _check_step_inputs(x, h, self.input_size, self.hidden_size)
        return self.step(x @ self.weight_ih + self.bias_ih, h)

    def step(self, gates_input: Tensor, h: Tensor) -> Tensor:
        """Advance one step from *precomputed* input-side gates.

        ``gates_input`` is ``x @ W_ih + b_ih`` of shape
        ``(batch, 3 * hidden)``.  Built from primitive ops, this is the
        reference that :func:`repro.nn.functional.gru_sequence` (what
        :class:`GRU` runs) must match step for step; :meth:`forward`
        keeps the classic per-step contract.
        """
        gates_hidden = h @ self.weight_hh + self.bias_hh
        i_r, i_z, i_n = F.chunk(gates_input, 3, axis=-1)
        h_r, h_z, h_n = F.chunk(gates_hidden, 3, axis=-1)
        reset = (i_r + h_r).sigmoid()
        update = (i_z + h_z).sigmoid()
        candidate = (i_n + reset * h_n).tanh()
        return (1.0 - update) * candidate + update * h

    def initial_state(self, batch: int) -> Tensor:
        return Tensor(np.zeros((batch, self.hidden_size)))


class GRU(Module):
    """Masked unidirectional GRU over a ``(steps, batch, input)`` tensor.

    Returns ``(outputs, final)`` where ``outputs`` has shape
    ``(steps, batch, hidden)`` and ``final`` is each sequence's hidden
    state at its last unmasked step.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: RngLike = None) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.cell = GRUCell(input_size, hidden_size, rng=rng)

    def forward(
        self,
        inputs: Tensor,
        mask: np.ndarray | None = None,
        h0: Tensor | None = None,
        reverse: bool = False,
    ) -> tuple[Tensor, Tensor]:
        """``reverse`` runs the recurrence from the last step to the
        first; ``outputs`` stays aligned with ``inputs`` either way, and
        ``final`` is the state after the last step processed."""
        if inputs.ndim != 3 or inputs.shape[2] != self.input_size:
            raise ShapeError(
                f"GRU expected (steps, batch, {self.input_size}), got {inputs.shape}"
            )
        steps, batch, _ = inputs.shape
        if steps == 0:
            raise ShapeError("GRU requires at least one time step")
        if mask is not None:
            mask = _as_mask(mask, steps, batch)
        if h0 is not None and h0.shape != (batch, self.hidden_size):
            raise ShapeError(
                f"GRU expected h0 ({batch}, {self.hidden_size}), got {h0.shape}"
            )
        # Hoist the input projection out of the recurrence: one
        # (steps * batch, input) matmul for the whole sequence; only
        # h @ W_hh stays inside the loop of the fused recurrence node.
        cell = self.cell
        flat = inputs.reshape(steps * batch, self.input_size)
        gates_input = (flat @ cell.weight_ih + cell.bias_ih).reshape(
            steps, batch, 3 * self.hidden_size)
        outputs = F.gru_sequence(gates_input, cell.weight_hh, cell.bias_hh,
                                 mask=mask, h0=h0, reverse=reverse)
        return outputs, outputs[0 if reverse else steps - 1]


class BiGRU(Module):
    """Bidirectional GRU; summaries are the concatenated final states.

    The backward direction runs the same recurrence from the last step
    to the first (``reverse=True``); padded steps (mask 0) simply carry
    the zero state until the sequence's real suffix begins, so neither
    the sequence nor the outputs need re-aligning.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: RngLike = None) -> None:
        super().__init__()
        generator = make_rng(rng)
        forward_rng, backward_rng = spawn(generator, 2)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.forward_gru = GRU(input_size, hidden_size, rng=forward_rng)
        self.backward_gru = GRU(input_size, hidden_size, rng=backward_rng)

    @property
    def output_size(self) -> int:
        return 2 * self.hidden_size

    def forward(
        self, inputs: Tensor, mask: np.ndarray | None = None
    ) -> tuple[Tensor, Tensor]:
        """Return ``(outputs, summary)``.

        ``outputs`` is ``(steps, batch, 2*hidden)``, both streams aligned
        per time step; ``summary`` is ``(batch, 2*hidden)``.
        """
        forward_out, forward_final = self.forward_gru(inputs, mask=mask)
        backward_out, backward_final = self.backward_gru(inputs, mask=mask, reverse=True)
        outputs = F.concat([forward_out, backward_out], axis=2)
        summary = F.concat([forward_final, backward_final], axis=1)
        return outputs, summary
