"""Fused numpy inference kernel for PathRank-shaped models.

The autograd :class:`~repro.nn.tensor.Tensor` layer is the *reference*
forward implementation: every operation builds (or at least dispatches
through) the computation-graph machinery, the embedding, projections,
pooling and head are separate Tensor ops, and each op allocates fresh
arrays.  That is exactly what training needs and far more than inference
needs — under ``no_grad`` the bookkeeping is pure overhead, and online
serving pays it per request.

:class:`CompiledPathRank` is the inference counterpart: the model's
weights snapshotted into flat contiguous arrays (float32 by default) and
a graph-free forward pass over preallocated per-thread buffers:

* **embedding gather** — one ``np.take`` into a reused buffer;
* **hoisted input projection** — ``x @ W_ih + b_ih`` for *all* timesteps
  as a single batched matmul before the recurrence; only the unavoidable
  ``h @ W_hh`` remains inside the per-step loop;
* **(Bi)GRU recurrence** — in-place gate math (stable sigmoid / tanh
  with ``out=``), masked state propagation via boolean ``np.copyto``;
* **pooling + FC head** — masked mean / final-state / additive-attention
  reduction and the two-layer head, all on the same workspace.

The arithmetic mirrors the module forward expression for expression, so
scores agree with the reference to float32 roundoff (and to ~1e-12 when
compiled with ``dtype=np.float64`` — the parity tests pin both).

**Staleness.**  A compiled kernel is a snapshot: it is keyed by the
source model's :attr:`~repro.nn.module.Module.weight_version` counter,
which bumps on ``load_state_dict``.  :func:`compiled_for` caches one
kernel per live model and recompiles only when the counter moved, so a
registry hot-swap (which loads fresh weights) can never serve a stale
snapshot.  Code that mutates parameter ``.data`` in place outside
``load_state_dict`` must call ``model.bump_weight_version()`` before the
next fused score.

**Backend seam.**  ``PathRank.score_paths`` (and everything above it:
the batching scorer, the serving facade, the evaluation harness)
dispatches through :func:`resolve_scoring_backend`.  Set the environment
variable ``REPRO_SCORING_BACKEND=module`` (or call
:func:`set_scoring_backend`, or pass ``backend="module"`` per call) to
force the reference Tensor forward; ``fused`` / ``auto`` (the default)
select this kernel.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from contextlib import contextmanager
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigError, ShapeError
from repro.nn.tensor import stable_sigmoid

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.nn.module import Module

__all__ = [
    "DEFAULT_COMPILE_DTYPE",
    "CompiledPathRank",
    "compiled_for",
    "compiled_if_cached",
    "get_scoring_backend",
    "set_scoring_backend",
    "use_scoring_backend",
    "resolve_scoring_backend",
]

#: Compiled kernels default to float32: inference does not need the
#: float64 headroom the gradient checks require, and halving the memory
#: traffic is most of the point of a fused kernel.
DEFAULT_COMPILE_DTYPE = np.float32


class _Workspace:
    """Named scratch buffers, grown monotonically and reused across calls.

    Buffers live per ``(kernel, thread)``; a request for a larger shape
    reallocates, a smaller one returns a view of the existing base, so a
    serving process converges to zero steady-state allocation.
    """

    __slots__ = ("_base",)

    def __init__(self) -> None:
        self._base: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...],
            dtype: np.dtype) -> np.ndarray:
        need = 1
        for extent in shape:
            need *= int(extent)
        base = self._base.get(name)
        if base is None or base.size < need or base.dtype != dtype:
            base = np.empty(max(need, 1), dtype=dtype)
            self._base[name] = base
        return base[:need].reshape(shape)


class CompiledPathRank:
    """Weight snapshot + fused forward for one PathRank-shaped model.

    Built structurally (duck-typed) from any module exposing PathRank's
    surface: ``embedding``, ``rnn`` (GRU or BiGRU), ``fc1``/``fc2``,
    ``pooling``, and the attention layers when ``pooling="attention"``.
    Instances are immutable snapshots — use :func:`compiled_for` for the
    version-checked cache.
    """

    def __init__(self, model: "Module", dtype: np.dtype | None = None) -> None:
        dtype = np.dtype(dtype if dtype is not None else DEFAULT_COMPILE_DTYPE)
        if dtype.kind != "f":
            raise ConfigError(f"compile dtype must be floating, got {dtype}")
        self.dtype = dtype
        self.weight_version = int(getattr(model, "weight_version", 0))

        def snap(array: np.ndarray) -> np.ndarray:
            return np.ascontiguousarray(array, dtype=dtype)

        try:
            self.embedding = snap(model.embedding.weight.data)
            self.pooling = str(model.pooling)
            self.bidirectional = bool(model.bidirectional)
            self.hidden_size = int(model.hidden_size)
            if self.bidirectional:
                cells = [model.rnn.forward_gru.cell, model.rnn.backward_gru.cell]
            else:
                cells = [model.rnn.cell]
            self.gru = [
                (snap(cell.weight_ih.data), snap(cell.weight_hh.data),
                 snap(cell.bias_ih.data), snap(cell.bias_hh.data))
                for cell in cells
            ]
            self.fc1_weight = snap(model.fc1.weight.data)
            self.fc1_bias = snap(model.fc1.bias.data)
            self.fc2_weight = snap(model.fc2.weight.data)
            self.fc2_bias = snap(model.fc2.bias.data)
            if self.pooling == "attention":
                self.attn_proj_weight = snap(model.attn_proj.weight.data)
                self.attn_proj_bias = snap(model.attn_proj.bias.data)
                self.attn_score_weight = snap(model.attn_score.weight.data)
        except AttributeError as exc:
            raise ConfigError(
                f"cannot compile {type(model).__name__}: model does not "
                f"expose the PathRank forward surface ({exc})"
            ) from exc
        self.num_vertices, self.embedding_dim = self.embedding.shape
        self.summary_size = (2 if self.bidirectional else 1) * self.hidden_size
        self._tls = threading.local()
        # Cumulative forward-pass profile (surfaced by the serving layer
        # under ``kernel.scoring.*``): call/volume counters, wall time,
        # and a log2 batch-size distribution.  One short lock hold per
        # forward — noise next to the matmuls it measures.
        self._profile_lock = threading.Lock()
        self._profile: dict[str, float] = {
            "forwards": 0, "paths_scored": 0, "steps_total": 0,
            "wall_s": 0.0,
        }
        self._profile_batches: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def _workspace(self) -> _Workspace:
        workspace = getattr(self._tls, "workspace", None)
        if workspace is None:
            workspace = self._tls.workspace = _Workspace()
        return workspace

    def _run_direction(
        self,
        direction: int,
        x: np.ndarray,
        mask_float: np.ndarray,
        mask_bool: np.ndarray,
        outputs: np.ndarray | None,
        workspace: _Workspace,
    ) -> np.ndarray:
        """One GRU direction; returns the final hidden state buffer."""
        w_ih, w_hh, b_ih, b_hh = self.gru[direction]
        steps, batch = mask_float.shape
        hidden = self.hidden_size
        two_h = 2 * hidden
        dtype = self.dtype

        # The hoisted input projection: every timestep's x @ W_ih in one
        # matmul.  The recurrent biases of the r/z gates do not interact
        # with the reset gate, so they fold into the hoist too; only the
        # candidate gate's b_hn must stay inside r * (h W_hn + b_hn).
        # The buffer is shared between directions (they run sequentially)
        # and between calls.
        gates_input = workspace.get("gates_input", (steps * batch, 3 * hidden),
                                    dtype)
        np.matmul(x, w_ih, out=gates_input)
        gates_input += b_ih
        gates_input[:, :two_h] += b_hh[:two_h]
        gates_input = gates_input.reshape(steps, batch, 3 * hidden)
        b_hn = b_hh[two_h:]

        gates_hidden = workspace.get("gates_hidden", (batch, 3 * hidden), dtype)
        gate_rz = workspace.get("gate_rz", (batch, two_h), dtype)
        hidden_n = workspace.get("hidden_n", (batch, hidden), dtype)
        candidate = workspace.get("candidate", (batch, hidden), dtype)
        blend = workspace.get("blend", (batch, hidden), dtype)
        state = workspace.get(f"state{direction}", (batch, hidden), dtype)
        state.fill(0.0)

        column = slice(direction * hidden, (direction + 1) * hidden)
        time_order = range(steps) if direction == 0 else range(steps - 1, -1, -1)
        mask_cols = mask_bool[:, :, None]
        for t in time_order:
            np.matmul(state, w_hh, out=gates_hidden)
            step_input = gates_input[t]
            # r = sigmoid(i_r + h_r), z = sigmoid(i_z + h_z) in one shot.
            np.add(step_input[:, :two_h], gates_hidden[:, :two_h], out=gate_rz)
            stable_sigmoid(gate_rz, gate_rz)
            # n = tanh(i_n + r * (h W_hn + b_hn))
            np.add(gates_hidden[:, two_h:], b_hn, out=hidden_n)
            np.multiply(gate_rz[:, :hidden], hidden_n, out=candidate)
            candidate += step_input[:, two_h:]
            np.tanh(candidate, out=candidate)
            # h' = (1 - z) * n + z * h = n + z * (h - n), applied only
            # where the mask is on.
            np.subtract(state, candidate, out=blend)
            blend *= gate_rz[:, hidden:two_h]
            blend += candidate
            np.copyto(state, blend, where=mask_cols[t])
            if outputs is not None:
                np.copyto(outputs[t, :, column], state)
        return state

    def forward(self, vertex_ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Scores for one padded batch, shape ``(batch,)``, ``float64``.

        ``vertex_ids`` and ``mask`` follow the ``(steps, batch)`` layout
        of :func:`repro.core.batching.encode_paths`.  Inference only —
        dropout is treated as identity, exactly like the module forward
        in eval mode.
        """
        ids = np.asarray(vertex_ids)
        if ids.ndim != 2:
            raise ShapeError(
                f"vertex_ids must be (steps, batch), got shape {ids.shape}")
        raw_mask = np.asarray(mask)
        if raw_mask.shape != ids.shape:
            raise ShapeError(
                f"mask shape {raw_mask.shape} does not match ids {ids.shape}")
        steps, batch = ids.shape
        dtype = self.dtype
        began = time.perf_counter()
        workspace = self._workspace()

        # Embedding gather, flattened so both direction matmuls reuse it.
        x = workspace.get("x", (steps * batch, self.embedding_dim), dtype)
        np.take(self.embedding, ids.reshape(-1), axis=0, out=x)

        mask_float = workspace.get("mask_float", (steps, batch), dtype)
        np.copyto(mask_float, raw_mask, casting="unsafe")
        mask_bool = workspace.get("mask_bool", (steps, batch), np.dtype(bool))
        np.greater(mask_float, 0.5, out=mask_bool)

        outputs = None
        if self.pooling != "final":
            outputs = workspace.get("outputs",
                                    (steps, batch, self.summary_size), dtype)
        summary = workspace.get("summary", (batch, self.summary_size), dtype)
        for direction in range(len(self.gru)):
            final = self._run_direction(direction, x, mask_float, mask_bool,
                                        outputs, workspace)
            if self.pooling == "final":
                width = self.hidden_size
                np.copyto(summary[:, direction * width:(direction + 1) * width],
                          final)

        if self.pooling == "mean":
            counts = np.maximum(mask_float.sum(axis=0), 1.0)
            np.einsum("tbs,tb->bs", outputs, mask_float, out=summary)
            summary /= counts[:, None]
        elif self.pooling == "attention":
            self._attention_pool(outputs, mask_float, summary, workspace)

        # FC head: tanh hidden layer, scalar logit, stable sigmoid.
        fc_hidden = workspace.get("fc_hidden",
                                  (batch, self.fc1_weight.shape[1]), dtype)
        np.matmul(summary, self.fc1_weight, out=fc_hidden)
        fc_hidden += self.fc1_bias
        np.tanh(fc_hidden, out=fc_hidden)
        logits = workspace.get("logits", (batch, 1), dtype)
        np.matmul(fc_hidden, self.fc2_weight, out=logits)
        logits += self.fc2_bias
        flat = logits.reshape(batch)
        scores = workspace.get("scores", (batch,), dtype)
        stable_sigmoid(flat, scores)
        result = scores.astype(np.float64)
        elapsed = time.perf_counter() - began
        with self._profile_lock:
            profile = self._profile
            profile["forwards"] += 1
            profile["paths_scored"] += batch
            profile["steps_total"] += steps * batch
            profile["wall_s"] += elapsed
            bucket = 1 << max(0, batch - 1).bit_length()
            self._profile_batches[bucket] = \
                self._profile_batches.get(bucket, 0) + 1
        return result

    __call__ = forward

    def profile_counters(self) -> dict[str, object]:
        """Cumulative forward-pass profile since this kernel was compiled.

        ``batch_le_<N>`` keys form a log2 batch-size distribution (the
        count of forwards whose batch fit under each power-of-two
        ceiling) — the direct evidence of whether batching/coalescing
        delivers the batch sizes the fused kernel is built for.
        """
        with self._profile_lock:
            profile = dict(self._profile)
            batches = dict(self._profile_batches)
        forwards = profile["forwards"]
        profile["mean_batch"] = (
            profile["paths_scored"] / forwards if forwards else 0.0)
        for bucket in sorted(batches):
            profile[f"batch_le_{bucket}"] = batches[bucket]
        return profile

    # ------------------------------------------------------------------
    # Shared-memory export / import (repro.exec)
    # ------------------------------------------------------------------
    def shared_payload(self) -> tuple[dict[str, np.ndarray], dict[str, object]]:
        """The snapshot's flat weight buffers as ``(arrays, meta)``.

        Everything :meth:`forward` reads is already a contiguous array
        on this object, so the export is a plain dict of those buffers;
        :meth:`from_shared` rebuilds a kernel whose weights are
        zero-copy views into a shared segment.
        """
        arrays: dict[str, np.ndarray] = {"embedding": self.embedding}
        for index, (w_ih, w_hh, b_ih, b_hh) in enumerate(self.gru):
            arrays[f"gru:{index}:w_ih"] = w_ih
            arrays[f"gru:{index}:w_hh"] = w_hh
            arrays[f"gru:{index}:b_ih"] = b_ih
            arrays[f"gru:{index}:b_hh"] = b_hh
        arrays["fc1_weight"] = self.fc1_weight
        arrays["fc1_bias"] = self.fc1_bias
        arrays["fc2_weight"] = self.fc2_weight
        arrays["fc2_bias"] = self.fc2_bias
        if self.pooling == "attention":
            arrays["attn_proj_weight"] = self.attn_proj_weight
            arrays["attn_proj_bias"] = self.attn_proj_bias
            arrays["attn_score_weight"] = self.attn_score_weight
        meta: dict[str, object] = {
            "dtype": str(self.dtype),
            "weight_version": self.weight_version,
            "pooling": self.pooling,
            "bidirectional": self.bidirectional,
            "hidden_size": self.hidden_size,
            "gru_cells": len(self.gru),
        }
        return arrays, meta

    @classmethod
    def from_shared(cls, arrays: dict[str, np.ndarray],
                    meta: dict[str, object]) -> "CompiledPathRank":
        """Rebuild a scoring kernel over a shared segment's buffers.

        The weight views stay zero-copy (the forward pass only reads
        them); per-thread workspaces and profile counters are fresh and
        private to the attaching process.
        """
        kernel = cls.__new__(cls)
        kernel.dtype = np.dtype(meta["dtype"])
        kernel.weight_version = int(meta["weight_version"])
        kernel.embedding = arrays["embedding"]
        kernel.pooling = str(meta["pooling"])
        kernel.bidirectional = bool(meta["bidirectional"])
        kernel.hidden_size = int(meta["hidden_size"])
        kernel.gru = [
            (arrays[f"gru:{index}:w_ih"], arrays[f"gru:{index}:w_hh"],
             arrays[f"gru:{index}:b_ih"], arrays[f"gru:{index}:b_hh"])
            for index in range(int(meta["gru_cells"]))
        ]
        kernel.fc1_weight = arrays["fc1_weight"]
        kernel.fc1_bias = arrays["fc1_bias"]
        kernel.fc2_weight = arrays["fc2_weight"]
        kernel.fc2_bias = arrays["fc2_bias"]
        if kernel.pooling == "attention":
            kernel.attn_proj_weight = arrays["attn_proj_weight"]
            kernel.attn_proj_bias = arrays["attn_proj_bias"]
            kernel.attn_score_weight = arrays["attn_score_weight"]
        kernel.num_vertices, kernel.embedding_dim = kernel.embedding.shape
        kernel.summary_size = (2 if kernel.bidirectional else 1) \
            * kernel.hidden_size
        kernel._tls = threading.local()
        kernel._profile_lock = threading.Lock()
        kernel._profile = {
            "forwards": 0, "paths_scored": 0, "steps_total": 0,
            "wall_s": 0.0,
        }
        kernel._profile_batches = {}
        return kernel

    def _attention_pool(self, outputs: np.ndarray, mask_float: np.ndarray,
                        summary: np.ndarray, workspace: _Workspace) -> None:
        """Masked additive attention, mirroring ``PathRank._attention_pool``."""
        steps, batch = mask_float.shape
        dtype = self.dtype
        flat = outputs.reshape(steps * batch, self.summary_size)
        projected = workspace.get("attn_projected",
                                  (steps * batch, self.attn_proj_weight.shape[1]),
                                  dtype)
        np.matmul(flat, self.attn_proj_weight, out=projected)
        projected += self.attn_proj_bias
        np.tanh(projected, out=projected)
        logits = workspace.get("attn_logits", (steps * batch, 1), dtype)
        np.matmul(projected, self.attn_score_weight, out=logits)
        logits = logits.reshape(steps, batch)
        # Push padded steps to -inf, then a masked, shifted softmax over time.
        penalty = workspace.get("attn_penalty", (steps, batch), dtype)
        np.subtract(1.0, mask_float, out=penalty)
        penalty *= -1e9
        logits += penalty
        logits -= logits.max(axis=0, keepdims=True)
        np.exp(logits, out=logits)
        logits *= mask_float
        logits /= logits.sum(axis=0, keepdims=True)
        np.einsum("tb,tbs->bs", logits, outputs, out=summary)

    def __repr__(self) -> str:
        return (f"CompiledPathRank(vertices={self.num_vertices}, "
                f"M={self.embedding_dim}, H={self.hidden_size}, "
                f"pooling={self.pooling!r}, dtype={self.dtype}, "
                f"weight_version={self.weight_version})")


# ----------------------------------------------------------------------
# Compiled-kernel cache
# ----------------------------------------------------------------------
_compiled_cache: "weakref.WeakKeyDictionary[object, dict[np.dtype, CompiledPathRank]]" = \
    weakref.WeakKeyDictionary()
_compiled_lock = threading.Lock()


def compiled_for(model: "Module",
                 dtype: np.dtype | None = None) -> CompiledPathRank:
    """The cached compiled kernel for ``model``, recompiled when stale.

    Staleness is the model's ``weight_version`` counter (bumped by
    ``load_state_dict``), so a hot-swapped or freshly loaded model always
    scores with its current weights while steady-state serving pays only
    a dictionary lookup.
    """
    dtype = np.dtype(dtype if dtype is not None else DEFAULT_COMPILE_DTYPE)
    version = int(getattr(model, "weight_version", 0))
    entry = _compiled_cache.get(model)
    if entry is not None:
        compiled = entry.get(dtype)
        if compiled is not None and compiled.weight_version == version:
            return compiled
    with _compiled_lock:
        entry = _compiled_cache.get(model)
        if entry is not None:
            compiled = entry.get(dtype)
            if compiled is not None and compiled.weight_version == version:
                return compiled
        compiled = CompiledPathRank(model, dtype=dtype)
        if entry is None or any(c.weight_version != version
                                for c in entry.values()):
            entry = {}  # drop snapshots of older weight versions
            _compiled_cache[model] = entry
        entry[dtype] = compiled
        return compiled


def compiled_if_cached(model: "Module",
                       dtype: np.dtype | None = None) -> CompiledPathRank | None:
    """The cached compiled kernel for ``model`` — without compiling one.

    Telemetry readers (``kernel.scoring.*`` callbacks) want the profile
    of the kernel serving actually used; ``None`` means nothing compiled
    this model yet (e.g. the module backend is active) and there is no
    profile to report.  Staleness is deliberately ignored: a superseded
    snapshot's counters still describe the forwards that really ran.
    """
    dtype = np.dtype(dtype if dtype is not None else DEFAULT_COMPILE_DTYPE)
    entry = _compiled_cache.get(model)
    return entry.get(dtype) if entry else None


# ----------------------------------------------------------------------
# Backend seam
# ----------------------------------------------------------------------
_VALID_SCORING_BACKENDS = ("auto", "fused", "module")


def _scoring_backend_from_env() -> str:
    name = os.environ.get("REPRO_SCORING_BACKEND", "auto").strip().lower()
    return name if name in _VALID_SCORING_BACKENDS else "auto"


_scoring_backend = _scoring_backend_from_env()


def set_scoring_backend(name: str) -> None:
    """Select the process-wide scoring backend.

    ``"fused"`` (and ``"auto"``, the default) score through the compiled
    numpy kernel; ``"module"`` forces the reference autograd forward.
    """
    global _scoring_backend
    if name not in _VALID_SCORING_BACKENDS:
        raise ConfigError(
            f"unknown scoring backend {name!r}; expected one of "
            f"{', '.join(_VALID_SCORING_BACKENDS)}"
        )
    _scoring_backend = name


def get_scoring_backend() -> str:
    """The currently selected scoring backend name."""
    return _scoring_backend


@contextmanager
def use_scoring_backend(name: str):
    """Temporarily select a scoring backend (tests, benchmarks)."""
    previous = get_scoring_backend()
    set_scoring_backend(name)
    try:
        yield
    finally:
        set_scoring_backend(previous)


def resolve_scoring_backend(override: str | None = None) -> str:
    """Resolve an optional per-call override against the global setting
    to a concrete backend: ``"fused"`` or ``"module"``."""
    name = override if override is not None else _scoring_backend
    if name not in _VALID_SCORING_BACKENDS:
        raise ConfigError(
            f"unknown scoring backend {name!r}; expected one of "
            f"{', '.join(_VALID_SCORING_BACKENDS)}"
        )
    return "module" if name == "module" else "fused"
