"""Padded mini-batching of variable-length vertex sequences.

PathRank consumes candidate paths as vertex-id sequences of different
lengths.  A batch is encoded as a ``(steps, batch)`` id matrix plus a
``(steps, batch)`` {0,1} mask; the masked GRU then yields each path's
final hidden state at its own length.

Encoding is allocation-light: ids are ``int32``, masks ``float32``, and
repeat batch shapes reuse a per-thread scratch buffer instead of
allocating fresh ``max(steps)``-sized arrays per call (see
:func:`encode_paths`).  For mixed-length batches,
:func:`length_buckets` / :func:`encode_path_buckets` group paths of
similar length so each group pads to its *own* maximum instead of the
global one.  The fused kernel scores unpadded sequences; only the
benchmark's scoring replay (``bench/serve.py``) still feeds it buckets.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator, Sequence

import numpy as np

from repro.errors import DataError
from repro.graph.path import Path

__all__ = [
    "encode_paths",
    "encode_path_buckets",
    "length_buckets",
]

#: Default greedy-bucketing knobs: a bucket closes once it holds at
#: least ``BUCKET_MIN_SIZE`` paths *and* the next (sorted) length would
#: exceed ``BUCKET_GROWTH`` times the bucket's shortest member.  The
#: size floor keeps tiny batches from fragmenting into per-length
#: buckets, where the per-bucket fixed cost would beat the padding
#: saved.
BUCKET_GROWTH = 1.5
BUCKET_MIN_SIZE = 8

_scratch = threading.local()


def _scratch_pair(steps: int, batch: int,
                  store: dict) -> tuple[np.ndarray, np.ndarray]:
    """Zeroed ``(steps, batch)`` id/mask views over per-thread buffers."""
    need = steps * batch
    ids_base = store.get("ids")
    if ids_base is None or ids_base.size < need:
        ids_base = np.zeros(need, dtype=np.int32)
        store["ids"] = ids_base
    else:
        ids_base[:need] = 0
    mask_base = store.get("mask")
    if mask_base is None or mask_base.size < need:
        mask_base = np.zeros(need, dtype=np.float32)
        store["mask"] = mask_base
    else:
        mask_base[:need] = 0.0
    return (ids_base[:need].reshape(steps, batch),
            mask_base[:need].reshape(steps, batch))


def encode_paths(paths: Sequence[Path],
                 reuse: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Pad paths to a common length.

    Returns ``(vertex_ids, mask)`` of shape ``(steps, batch)`` —
    ``int32`` ids and a ``float32`` mask.  Padding uses vertex id 0 — a
    valid embedding row whose contribution the mask suppresses.

    With ``reuse`` (the default) the arrays are views over a per-thread
    scratch buffer and are **overwritten by the next call on the same
    thread** — encode, consume, move on, which is exactly what the
    training loop and the scoring kernels do.  Pass ``reuse=False`` to
    get fresh arrays you can hold across calls.
    """
    if not paths:
        raise DataError("cannot encode an empty path batch")
    steps = max(path.num_vertices for path in paths)
    batch = len(paths)
    if reuse:
        store = getattr(_scratch, "store", None)
        if store is None:
            store = _scratch.store = {}
        vertex_ids, mask = _scratch_pair(steps, batch, store)
    else:
        vertex_ids = np.zeros((steps, batch), dtype=np.int32)
        mask = np.zeros((steps, batch), dtype=np.float32)
    for column, path in enumerate(paths):
        length = path.num_vertices
        vertex_ids[:length, column] = path.vertices
        mask[:length, column] = 1.0
    return vertex_ids, mask


def length_buckets(
    lengths: Sequence[int],
    growth: float = BUCKET_GROWTH,
    min_bucket: int = BUCKET_MIN_SIZE,
) -> list[np.ndarray]:
    """Group item indices by similar length.

    Returns index arrays partitioning ``range(len(lengths))``, sorted by
    length within and across buckets (stable, so equal lengths keep
    their input order).  A bucket closes once it has ``min_bucket``
    members and the next length exceeds ``growth`` times the bucket's
    shortest one, bounding per-bucket padding waste at ``growth``x for
    every full bucket.
    """
    if growth < 1.0:
        raise ValueError(f"growth must be >= 1, got {growth}")
    if min_bucket < 1:
        raise ValueError(f"min_bucket must be >= 1, got {min_bucket}")
    values = np.asarray(lengths)
    if values.size == 0:
        return []
    order = np.argsort(values, kind="stable")
    if values.size < 2 * min_bucket:
        # Too small to fill two buckets: splitting would only trade the
        # padding saved for per-bucket fixed cost.
        return [order]
    buckets: list[np.ndarray] = []
    start = 0
    limit = values[order[0]] * growth
    for position in range(1, order.size):
        if position - start >= min_bucket and values[order[position]] > limit:
            buckets.append(order[start:position])
            start = position
            limit = values[order[position]] * growth
    buckets.append(order[start:])
    return buckets


def encode_path_buckets(
    paths: Sequence[Path],
    growth: float = BUCKET_GROWTH,
    min_bucket: int = BUCKET_MIN_SIZE,
    reuse: bool = True,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Encode ``paths`` as length-bucketed padded batches.

    Yields ``(index, vertex_ids, mask)`` per bucket, where ``index`` maps
    each column of the encoded batch back to its position in ``paths``.
    Each bucket pads to its own longest member, so a 120-vertex outlier
    no longer inflates every 20-vertex neighbour to 120 steps.  The
    ``reuse`` caveat of :func:`encode_paths` applies per bucket.
    """
    if not paths:
        raise DataError("cannot encode an empty path batch")
    lengths = [path.num_vertices for path in paths]
    for index in length_buckets(lengths, growth=growth, min_bucket=min_bucket):
        chunk = [paths[i] for i in index]
        vertex_ids, mask = encode_paths(chunk, reuse=reuse)
        yield index, vertex_ids, mask
