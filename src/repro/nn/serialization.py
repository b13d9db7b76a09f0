"""Saving and loading state dicts as ``.npz`` archives."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.errors import SerializationError

__all__ = ["save_state", "load_state"]

_META_KEY = "__repro_meta__"
_FORMAT_VERSION = 1


def save_state(state: dict[str, np.ndarray], path: str | Path,
               metadata: dict[str, object] | None = None) -> None:
    """Write a state dict to ``path`` (``.npz``), with optional JSON metadata."""
    path = Path(path)
    if _META_KEY in state:
        raise SerializationError(f"{_META_KEY!r} is a reserved key")
    meta = {"format_version": _FORMAT_VERSION, "user": metadata or {}}
    payload = dict(state)
    payload[_META_KEY] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as handle:
        np.savez(handle, **payload)


def load_state(path: str | Path) -> tuple[dict[str, np.ndarray], dict[str, object]]:
    """Read back a state dict and its metadata."""
    path = Path(path)
    if not path.exists():
        raise SerializationError(f"no such checkpoint: {path}")
    with np.load(path, allow_pickle=False) as archive:
        if _META_KEY not in archive:
            raise SerializationError(f"{path} is not a repro checkpoint (missing metadata)")
        meta = json.loads(bytes(archive[_META_KEY]).decode("utf-8"))
        if meta.get("format_version") != _FORMAT_VERSION:
            raise SerializationError(
                f"unsupported checkpoint version {meta.get('format_version')!r}"
            )
        state = {key: archive[key] for key in archive.files if key != _META_KEY}
    return state, meta.get("user", {})
