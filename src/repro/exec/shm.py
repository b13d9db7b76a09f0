"""Shared-memory segments for the execution plane.

A *segment* is one ``multiprocessing.shared_memory`` block holding a
set of named numpy arrays plus a JSON header, laid out as::

    [u64 header length][JSON header][pad to 64][array 0][pad][array 1]...

The header records a content *key* (``csr:<fingerprint digest>``) and
per-array descriptors (name, dtype, shape, byte offset).  Attaching
validates the key, so a worker can never silently route on stale
hot-state: another network's graph never matches, so its segment is
rejected with :class:`~repro.errors.StaleSegmentError`.

Ownership is explicit: the process that called :func:`create_segment`
owns the block and is the only one that unlinks it (idempotently, and
via ``atexit`` as a backstop).  Attachers get zero-copy read-only numpy
views and are refcounted *per process* — a second attach of the same
name reuses the existing mapping, and the mapping closes only when the
last attachment is detached.

Segment names all start with :data:`SEGMENT_PREFIX` so a test suite can
assert that no ``/dev/shm/repro-exec-*`` block outlives its owner
(:func:`list_repro_segments`).
"""

from __future__ import annotations

import atexit
import json
import os
import struct
import threading
import uuid
from multiprocessing import shared_memory

import numpy as np

from repro.errors import ExecError, StaleSegmentError

__all__ = ["SEGMENT_PREFIX", "SharedSegment", "AttachedSegment",
           "create_segment", "attach_segment", "list_repro_segments"]

#: Common prefix of every segment created here; the leak-check globs it.
SEGMENT_PREFIX = "repro-exec-"

_HEADER_LEN = struct.Struct("<Q")
_ALIGN = 64


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _plan_layout(arrays: dict[str, np.ndarray], key: str,
                 meta: dict[str, object]) -> tuple[bytes, list[dict], int]:
    """Header bytes, per-array descriptors, and total segment size."""
    descriptors: list[dict] = []
    # First pass with offset 0 to learn the header's encoded size; the
    # header length itself is stable because offsets are re-encoded at
    # fixed width below.
    for name, array in arrays.items():
        if not isinstance(array, np.ndarray):
            raise ExecError(f"segment array {name!r} is not a numpy array")
        descriptors.append({
            "name": name,
            "dtype": str(array.dtype),
            "shape": list(array.shape),
            "offset": 0,
        })
    probe = json.dumps({"key": key, "meta": meta, "arrays": descriptors},
                       sort_keys=True).encode("utf-8")
    # Reserve generous fixed width for each offset (u64 decimal).
    header_budget = len(probe) + 24 * len(descriptors) + 64
    cursor = _align(_HEADER_LEN.size + header_budget)
    for descriptor, array in zip(descriptors, arrays.values()):
        descriptor["offset"] = cursor
        cursor = _align(cursor + array.nbytes)
    header = json.dumps({"key": key, "meta": meta, "arrays": descriptors},
                        sort_keys=True).encode("utf-8")
    if _HEADER_LEN.size + len(header) > descriptors[0]["offset"]:
        raise ExecError("segment header overflowed its reserved space")
    return header, descriptors, cursor


def _views(buf, descriptors: list[dict]) -> dict[str, np.ndarray]:
    views: dict[str, np.ndarray] = {}
    for descriptor in descriptors:
        dtype = np.dtype(descriptor["dtype"])
        shape = tuple(descriptor["shape"])
        count = int(np.prod(shape)) if shape else 1
        view = np.frombuffer(buf, dtype=dtype, count=count,
                             offset=descriptor["offset"]).reshape(shape)
        views[descriptor["name"]] = view
    return views


class SharedSegment:
    """An *owned* shared-memory segment (create side).

    The owner keeps the block alive; :meth:`close` (or interpreter
    exit) unlinks it.  ``arrays`` are writable views — callers fill
    them once at publish time and treat them as immutable afterwards.
    """

    def __init__(self, shm: shared_memory.SharedMemory, key: str,
                 meta: dict[str, object],
                 arrays: dict[str, np.ndarray]) -> None:
        self._shm = shm
        self.name = shm.name
        self.key = key
        self.meta = meta
        self.arrays = arrays
        self.nbytes = shm.size
        self._closed = False

    def close(self) -> None:
        """Unlink the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        # Drop numpy views before closing the mapping, else BufferError.
        self.arrays = {}
        try:
            self._shm.close()
        except (OSError, BufferError):
            # A caller still holds a view into the mapping; the OS
            # reclaims it at exit — stop the destructor retrying (and
            # spraying unraisable BufferErrors) at GC time.
            self._shm.close = lambda: None
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass
        _OWNED.discard(self)

    @property
    def closed(self) -> bool:
        return self._closed


class AttachedSegment:
    """A read-only, per-process-refcounted attachment (attach side)."""

    def __init__(self, record: "_Attachment") -> None:
        self._record = record
        self.name = record.name
        self.key = record.key
        self.meta = record.meta
        self.arrays = record.arrays
        self._detached = False

    @property
    def refs(self) -> int:
        return self._record.refs

    def detach(self) -> None:
        """Give back one attachment reference (idempotent per handle)."""
        if self._detached:
            return
        self._detached = True
        self.arrays = {}
        self._record.release()


class _Attachment:
    """Per-process shared mapping of one segment name."""

    def __init__(self, name: str) -> None:
        shm = shared_memory.SharedMemory(name=name)
        # CPython 3.11's resource tracker registers *every* opened
        # block.  Our attachers are either the owner process itself or
        # its spawn children, and both share the owner's tracker
        # process, whose cache is a per-name *set*: the attach-side
        # registration is a no-op there, and the owner's unlink
        # unregisters the name exactly once.  Unregistering here would
        # therefore drop the owner's entry and unbalance its unlink —
        # so, deliberately, nothing to do.
        header_len, = _HEADER_LEN.unpack_from(shm.buf, 0)
        header = json.loads(
            bytes(shm.buf[_HEADER_LEN.size:_HEADER_LEN.size + header_len])
            .decode("utf-8"))
        self.name = name
        self.key = header["key"]
        self.meta = header["meta"]
        self.arrays = _views(shm.buf, header["arrays"])
        for view in self.arrays.values():
            view.flags.writeable = False
        self._shm = shm
        self.refs = 0

    def release(self) -> None:
        with _ATTACH_LOCK:
            self.refs -= 1
            if self.refs > 0:
                return
            _ATTACHED.pop(self.name, None)
        self.arrays = {}
        try:
            self._shm.close()
        except (OSError, BufferError):
            # Same as the owner side: a still-exported view makes the
            # mapping unclosable until GC; neuter the destructor so it
            # does not retry and raise unraisably.
            self._shm.close = lambda: None


_OWNED: set[SharedSegment] = set()
_ATTACHED: dict[str, _Attachment] = {}
_ATTACH_LOCK = threading.Lock()


@atexit.register
def _cleanup_owned() -> None:
    for segment in list(_OWNED):
        segment.close()
    # Attachment mappings cannot be closed while kernels still hold
    # numpy views into them (BufferError), and at interpreter exit the
    # OS reclaims the mapping anyway — neuter the finalizer so shutdown
    # GC does not spray "cannot close exported pointers exist" noise.
    with _ATTACH_LOCK:
        for record in _ATTACHED.values():
            record._shm.close = lambda: None


def create_segment(key: str, arrays: dict[str, np.ndarray],
                   meta: dict[str, object] | None = None) -> SharedSegment:
    """Create and fill a segment; the caller becomes its owner."""
    if not arrays:
        raise ExecError("a segment needs at least one array")
    meta = dict(meta or {})
    header, descriptors, size = _plan_layout(arrays, key, meta)
    name = f"{SEGMENT_PREFIX}{os.getpid():x}-{uuid.uuid4().hex[:10]}"
    shm = shared_memory.SharedMemory(name=name, create=True, size=size)
    _HEADER_LEN.pack_into(shm.buf, 0, len(header))
    shm.buf[_HEADER_LEN.size:_HEADER_LEN.size + len(header)] = header
    views = _views(shm.buf, descriptors)
    for array_name, array in arrays.items():
        views[array_name][...] = array
    segment = SharedSegment(shm, key, meta, views)
    _OWNED.add(segment)
    return segment


def attach_segment(name: str,
                   expect_key: str | None = None) -> AttachedSegment:
    """Attach to an existing segment by name, zero-copy.

    ``expect_key`` is the staleness guard: mismatch raises
    :class:`StaleSegmentError` without taking a reference.
    """
    with _ATTACH_LOCK:
        record = _ATTACHED.get(name)
        if record is None:
            try:
                record = _Attachment(name)
            except FileNotFoundError:
                raise ExecError(
                    f"shared segment {name!r} does not exist "
                    "(owner gone or already unlinked)") from None
            _ATTACHED[name] = record
        record.refs += 1
    if expect_key is not None and record.key != expect_key:
        handle = AttachedSegment(record)
        handle.detach()
        raise StaleSegmentError(
            f"shared segment {name!r} carries key {record.key!r}, "
            f"expected {expect_key!r} — stale hot-state rejected")
    return AttachedSegment(record)


def attached_refs(name: str) -> int:
    """This process's live reference count on ``name`` (0 if unmapped)."""
    with _ATTACH_LOCK:
        record = _ATTACHED.get(name)
        return record.refs if record is not None else 0


def list_repro_segments() -> list[str]:
    """Names of live ``repro-exec-*`` segments on this host.

    Reads ``/dev/shm`` directly (POSIX); used by the leak-check
    fixture to assert the suite tears down every segment it created.
    """
    root = "/dev/shm"
    try:
        entries = os.listdir(root)
    except OSError:
        return []
    return sorted(entry for entry in entries
                  if entry.startswith(SEGMENT_PREFIX))
