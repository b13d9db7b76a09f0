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
a graph-free :meth:`~CompiledPathRank.score` over vertex sequences.
Candidate paths are near-duplicates, so it scores each shared prefix once:

* **two tries, no padding** — the forward direction runs over the
  batch's prefix trie, the backward direction over its suffix trie (the
  prefix trie of the reversed sequences); one lexicographic sort of
  both sets of rows plus a few array ops builds both, and every node is
  one real recurrence row;
* **hoisted input projection** — each direction projects the batch's
  distinct vertices once and one gather lays the gates out per node;
* **one loop over depth** — a depth's forward and backward nodes share
  one buffer: one parent-state ``take``, one ``h @ W_hh`` GEMM per
  direction and one pass of in-place gate arithmetic;
* **pooling + FC head** — a path's final state per direction is the
  last trie node it reaches, mean pooling reads running sums kept per
  node, attention gathers the per-step states.

Scores agree with the module forward to float32 roundoff (~1e-12 when
compiled with ``dtype=np.float64`` — the parity tests pin both).  The
padded ``(steps, batch)`` :meth:`~CompiledPathRank.forward` is a thin
adapter: each column's masked-in steps go through ``score``, which is
what the masked recurrence computes for any 0/1 mask.

**Staleness.**  A compiled kernel is a snapshot: it is keyed by the
source model's :attr:`~repro.nn.module.Module.weight_version` counter,
which bumps on ``load_state_dict``.  :func:`compiled_for` caches one
kernel per live model and recompiles only when the counter moved, so a
registry hot-swap (which loads fresh weights) can never serve a stale
snapshot.  Code that mutates parameter ``.data`` in place outside
``load_state_dict`` must call ``model.bump_weight_version()`` before the
next fused score.

**Reference forward.**  ``PathRank.score_paths`` (and everything above
it: the batching scorer, the serving facade, the evaluation harness)
scores through this kernel; ``score_paths(paths, backend="module")``
runs the reference Tensor forward instead, per call, as the parity
oracle.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections.abc import Sequence
from itertools import chain
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


def _trie(rows: np.ndarray, lengths: np.ndarray):
    """The prefix trie of ``rows`` (``(count, width)``, padded with -1).

    After one lexicographic sort, a row opens a node at every depth past
    its common prefix with the row before it.  Returns each node's
    vertex and parent (-1 at depth 0) in depth-major order, ``opens``
    (``(width, count)``: which sorted row opened a node at which depth)
    and ``node[i, d]``: the node row ``i`` (input order) reaches at
    depth ``d``.  Padding with -1, not 0, keeps a row that is a proper
    prefix of another apart from it at the next depth.
    """
    count, width = rows.shape
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    shared = np.zeros(count, dtype=np.intp)
    shared[1:] = np.logical_and.accumulate(rows[1:] == rows[:-1],
                                           axis=1).sum(axis=1)
    depth = np.arange(width)[:, None]
    opens = (depth >= shared) & (depth < lengths[order])
    ids = np.where(opens, np.cumsum(opens).reshape(width, count) - 1, -1)
    node = np.maximum.accumulate(ids, axis=1)
    parent = np.vstack([np.full((1, count), -1), node[:-1]])[opens]
    unsort = np.empty_like(order)
    unsort[order] = np.arange(count)
    return rows.T[opens], parent, opens, node.T[unsort]


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
        self.summary_size = len(self.gru) * self.hidden_size
        # Per direction, gate-major (r, z, n first axis) so every gate
        # block of a step is contiguous: W_ih and W_hh as (3, ·, H), the
        # input bias with the recurrent r/z bias folded in, and b_hn,
        # which must stay inside r * (h W_hn + b_hn).  The r/z blocks
        # are halved — exact in binary floating point — so that
        # sigmoid(x) = (tanh(x / 2) + 1) / 2 starts at the tanh.
        hidden = self.hidden_size
        half = np.array([0.5, 0.5, 1.0], dtype=self.dtype)[:, None, None]

        def gates(array: np.ndarray) -> np.ndarray:
            return np.ascontiguousarray(
                array.reshape(-1, 3, hidden).transpose(1, 0, 2) * half)

        self._cells = []
        for w_ih, w_hh, b_ih, b_hh in self.gru:
            bias = b_ih.copy()
            bias[:2 * hidden] += b_hh[:2 * hidden]
            self._cells.append((gates(w_ih), gates(bias), gates(w_hh),
                                b_hh[2 * hidden:]))
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

    def score(self, sequences: Sequence[Sequence[int]]) -> np.ndarray:
        """Scores of vertex-id sequences, shape ``(len(sequences),)``,
        ``float64``.  Inference only — dropout is treated as identity,
        exactly like the module forward in eval mode."""
        lengths = np.fromiter(map(len, sequences), dtype=np.intp,
                              count=len(sequences))
        flat = np.fromiter(chain.from_iterable(sequences), dtype=np.intp,
                           count=int(lengths.sum()))
        return self._score(flat, lengths)

    def forward(self, vertex_ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Scores for one padded batch in the ``(steps, batch)`` layout
        of :func:`repro.core.batching.encode_paths`: each column keeps
        its ``mask > 0.5`` steps and goes through :meth:`score` — the
        same result as the masked recurrence for any 0/1 mask."""
        ids = np.asarray(vertex_ids)
        if ids.ndim != 2:
            raise ShapeError(
                f"vertex_ids must be (steps, batch), got shape {ids.shape}")
        keep = np.asarray(mask)
        if keep.shape != ids.shape:
            raise ShapeError(
                f"mask shape {keep.shape} does not match ids {ids.shape}")
        keep = (keep > 0.5).T
        return self._score(ids.T[keep], keep.sum(axis=1))

    __call__ = forward

    def _score(self, flat: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Scores of the sequences ``flat`` holds back to back."""
        if not lengths.size:
            return np.zeros(0)
        if lengths.min() < 1:
            raise ShapeError("every sequence needs at least one vertex")
        low, high = flat.min(), flat.max()
        if low < 0 or high >= self.num_vertices:
            raise IndexError(
                f"embedding indices out of range [0, {self.num_vertices}): "
                f"[{low}, {high}]")
        began = time.perf_counter()
        dtype, hidden = self.dtype, self.hidden_size
        workspace = self._workspace()
        count, width, total = lengths.size, int(lengths.max()), flat.size
        directions = len(self._cells)
        starts = np.cumsum(lengths) - lengths
        # The tries run on ranks among the flush's distinct vertices
        # (which keep their order), the backward direction's shifted
        # past the forward's: one trie over both sets of rows then
        # holds both tries, each depth's forward nodes first, and a
        # node's rank indexes its direction's input projection.
        vertices, ranks = np.unique(flat, return_inverse=True)
        distinct = vertices.size
        real = np.arange(width) < lengths[:, None]
        rows = np.full((directions * count, width), -1, dtype=np.intp)
        rows[:count][real] = ranks
        if self.bidirectional:
            # The backward direction is the forward recurrence over the
            # reversed sequences: their prefix trie is the suffix trie.
            path = np.repeat(np.arange(count), lengths)
            mirror = 2 * starts[path] + lengths[path] - 1 - np.arange(total)
            rows[count:][real] = ranks[mirror] + distinct
        vertex, parents, opens, node = _trie(rows, np.tile(lengths, directions))
        nodes = vertex.size
        bounds = np.zeros(width + 1, dtype=np.intp)
        np.cumsum(opens.sum(axis=1), out=bounds[1:])
        middles = bounds[:-1] + opens[:, :count].sum(axis=1)

        # Each direction projects the distinct vertices once; one gather
        # lays the input gates out node by node.
        embedded = np.take(self.embedding, vertices, axis=0)
        projected = workspace.get("projected",
                                  (3, directions * distinct, hidden), dtype)
        for k, (w_ih, b_ih, _, _) in enumerate(self._cells):
            block = projected[:, k * distinct:(k + 1) * distinct]
            np.matmul(embedded, w_ih, out=block)
            block += b_ih
        gates_input = workspace.get("gates_input", (3, nodes, hidden), dtype)
        np.take(projected, vertex, axis=1, out=gates_input, mode="clip")
        # Row ``nodes`` (parent -1) is the zero initial state.  Mean
        # pooling keeps, per node, the sum of the states on the way
        # from the root: a path's sum is then its last node's.
        states = workspace.get("states", (nodes + 1, hidden), dtype)
        states[nodes] = 0.0
        running = None
        if self.pooling == "mean":
            running = workspace.get("running", (nodes + 1, hidden), dtype)
            running[nodes] = 0.0
        self._recur(gates_input, parents, bounds, middles, states, running,
                    workspace)

        reads = [node[k * count:(k + 1) * count][real]
                 for k in range(directions)]
        # Pool per path, both directions side by side.  A trie's last
        # node on a path holds that direction's final state (and, for
        # mean pooling, its running sum).
        if self.pooling == "attention":
            if self.bidirectional:
                reads[1] = reads[1][mirror]
            outputs = np.take(states, np.stack(reads, axis=1),
                              axis=0).reshape(total, self.summary_size)
            summary = self._attention_pool(outputs, starts, lengths)
        else:
            ends = np.stack([read[starts + lengths - 1] for read in reads],
                            axis=1)
            summary = np.take(states if running is None else running, ends,
                              axis=0).reshape(count, self.summary_size)
            if running is not None:
                summary /= lengths[:, None].astype(dtype)

        # FC head: tanh hidden layer, scalar logit, stable sigmoid.
        fc_hidden = summary @ self.fc1_weight
        fc_hidden += self.fc1_bias
        np.tanh(fc_hidden, out=fc_hidden)
        logits = (fc_hidden @ self.fc2_weight).reshape(count)
        logits += self.fc2_bias
        result = stable_sigmoid(logits, logits).astype(np.float64)
        elapsed = time.perf_counter() - began
        with self._profile_lock:
            profile = self._profile
            profile["forwards"] += 1
            profile["paths_scored"] += count
            profile["steps_total"] += nodes / directions
            profile["wall_s"] += elapsed
            bucket = 1 << max(0, count - 1).bit_length()
            self._profile_batches[bucket] = \
                self._profile_batches.get(bucket, 0) + 1
        return result

    def _recur(self, gates_input: np.ndarray, parents: np.ndarray,
               bounds: np.ndarray, middles: np.ndarray, states: np.ndarray,
               running: np.ndarray | None, workspace: _Workspace) -> None:
        """The GRU over both tries, one depth at a time.

        Depth ``d``'s nodes are rows ``bounds[d]:bounds[d + 1]`` of
        ``states``, the backward ones from ``middles[d]``; each reads
        its parent's state, so one ``take``, one GEMM per direction and
        one pass of gate arithmetic advance both directions a step.
        """
        dtype, hidden = self.dtype, self.hidden_size
        # Per-step scratch, carved to each step's exact (contiguous) shape.
        widest = int(np.diff(bounds).max()) * hidden
        prior = workspace.get("prior", (widest,), dtype)
        gates_hidden = workspace.get("gates_hidden", (3 * widest,), dtype)
        gate_rz = workspace.get("gate_rz", (2 * widest,), dtype)
        candidate = workspace.get("candidate", (widest,), dtype)
        cells = [(w_hh, b_hn) for _, _, w_hh, b_hn in self._cells]
        for first, middle, last in zip(bounds[:-1].tolist(), middles.tolist(),
                                       bounds[1:].tolist()):
            size = last - first
            used = size * hidden
            step = parents[first:last]
            h = prior[:used].reshape(size, hidden)
            np.take(states, step, axis=0, out=h, mode="wrap")
            gh = gates_hidden[:3 * used].reshape(3, size, hidden)
            edges = (0, middle - first, size)
            for (w_hh, b_hn), lo, hi in zip(cells, edges, edges[1:]):
                np.matmul(h[lo:hi], w_hh, out=gh[:, lo:hi])
                gh[2, lo:hi] += b_hn
            step_input = gates_input[:, first:last]
            # r, z = sigmoid(i_rz + h_rz) on the halved pre-activations.
            rz = gate_rz[:2 * used].reshape(2, size, hidden)
            np.add(step_input[:2], gh[:2], out=rz)
            np.tanh(rz, out=rz)
            rz += 1.0
            rz *= 0.5
            # n = tanh(i_n + r * (h W_hn + b_hn))
            n = candidate[:used].reshape(size, hidden)
            np.multiply(rz[0], gh[2], out=n)
            n += step_input[2]
            np.tanh(n, out=n)
            # h' = (1 - z) * n + z * h = n + z * (h - n)
            new = states[first:last]
            np.subtract(h, n, out=new)
            new *= rz[1]
            new += n
            if running is not None:
                np.take(running, step, axis=0, out=h, mode="wrap")
                np.add(h, new, out=running[first:last])

    def _attention_pool(self, outputs: np.ndarray, starts: np.ndarray,
                        lengths: np.ndarray) -> np.ndarray:
        """Additive attention per path, mirroring ``PathRank._attention_pool``."""
        projected = outputs @ self.attn_proj_weight
        projected += self.attn_proj_bias
        np.tanh(projected, out=projected)
        logits = (projected @ self.attn_score_weight).reshape(len(outputs))
        # A shifted softmax over each path's own steps.
        logits -= np.repeat(np.maximum.reduceat(logits, starts), lengths)
        np.exp(logits, out=logits)
        logits /= np.repeat(np.add.reduceat(logits, starts), lengths)
        return np.add.reduceat(outputs * logits[:, None], starts, axis=0)

    def profile_counters(self) -> dict[str, object]:
        """Cumulative forward-pass profile since this kernel was compiled.

        ``steps_total`` counts the recurrence rows actually computed
        (trie nodes, averaged over the directions).  ``batch_le_<N>``
        keys form a log2 batch-size distribution (the count of forwards
        whose batch fit under each power-of-two ceiling) — the direct
        evidence of whether batching/coalescing delivers the batch sizes
        the fused kernel is built for.
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
