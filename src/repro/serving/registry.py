"""Versioned model artifacts with atomic hot-swap.

A registry is a directory of ``<version>.npz`` checkpoints (the format
written by :meth:`PathRankRanker.save` / ``nn.serialization``).  At most
one version is *active* at a time.  Activation is atomic with respect to
readers: :meth:`snapshot` returns an immutable :class:`ActiveModel`
record, and every in-flight request keeps scoring against the snapshot
it grabbed even while a newer version is being activated — no request
ever observes a half-swapped model.

Publishing is also atomic on disk (write to a temp file, then
``os.replace``), so a crashed publish never leaves a truncated
checkpoint that a later ``load`` would trip over.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from pathlib import Path as FilePath

from repro.core.model import PathRank
from repro.core.ranker import PathRankRanker
from repro.errors import ServingError
from repro.graph.network import RoadNetwork
from repro.nn.fused import compiled_for
from repro.nn.serialization import load_state

__all__ = ["ActiveModel", "ModelRegistry"]


@dataclass(frozen=True)
class ActiveModel:
    """Immutable view of the currently active model.

    ``generation`` increments on every activation, so two activations of
    the same version are still distinguishable snapshots.
    """

    version: str
    model: PathRank
    generation: int
    metadata: dict[str, object] = field(default_factory=dict)


class ModelRegistry:
    """Loads versioned PathRank checkpoints and hot-swaps the active one."""

    def __init__(self, root: str | FilePath, network: RoadNetwork) -> None:
        self._root = FilePath(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._network = network
        self._active: ActiveModel | None = None
        self._generation = 0
        self._lock = threading.Lock()

    @property
    def root(self) -> FilePath:
        return self._root

    @property
    def network(self) -> RoadNetwork:
        """The network this registry's checkpoints were trained against."""
        return self._network

    # ------------------------------------------------------------------
    # Artifact management
    # ------------------------------------------------------------------
    def _path_for(self, version: str) -> FilePath:
        if not version or "/" in version or version.startswith("."):
            raise ServingError(f"invalid model version name {version!r}")
        return self._root / f"{version}.npz"

    def versions(self) -> list[str]:
        """Published versions, sorted lexicographically."""
        return sorted(p.stem for p in self._root.glob("*.npz")
                      if not p.stem.startswith("."))

    def next_version(self) -> str:
        """The next free ``vNNNN`` slot."""
        taken = set(self.versions())
        number = len(taken) + 1
        while f"v{number:04d}" in taken:
            number += 1
        return f"v{number:04d}"

    def publish(self, ranker: PathRankRanker, version: str | None = None,
                activate: bool = False) -> str:
        """Persist a trained ranker's model as a new version.

        The checkpoint lands under its final name only once fully
        written.  With ``activate=True`` the new version goes live
        immediately (still atomically).
        """
        # The lock covers version allocation through the rename: without
        # it two concurrent publishes could allocate the same slot and
        # interleave writes to the same temp file.
        with self._lock:
            version = version or self.next_version()
            final = self._path_for(version)
            if final.exists():
                raise ServingError(f"model version {version!r} already exists")
            temp = self._root / f".publish-{version}.npz"
            try:
                ranker.save(temp)
                os.replace(temp, final)
            finally:
                temp.unlink(missing_ok=True)
        if activate:
            self.activate(version)
        return version

    def load(self, version: str) -> PathRank:
        """Instantiate the model stored under ``version`` (no activation)."""
        path = self._path_for(version)
        if not path.exists():
            known = ", ".join(self.versions()) or "none"
            raise ServingError(
                f"model version {version!r} not found in {self._root} "
                f"(published: {known})"
            )
        ranker = PathRankRanker(self._network).load(path)
        assert ranker.model is not None
        return ranker.model

    # ------------------------------------------------------------------
    # Hot-swap
    # ------------------------------------------------------------------
    def activate(self, version: str) -> ActiveModel:
        """Make ``version`` the active model, atomically.

        The replacement model is fully loaded *before* the swap, so the
        previous version keeps serving until the single reference
        assignment below; readers holding an older snapshot are
        unaffected.
        """
        model = self.load(version)
        # Warm the fused inference kernel up front so the first request
        # against this snapshot pays no compile latency.
        compiled_for(model)
        _, metadata = load_state(self._path_for(version))
        with self._lock:
            self._generation += 1
            active = self._active = ActiveModel(
                version=version, model=model, generation=self._generation,
                metadata=dict(metadata))
        return active

    def snapshot(self) -> ActiveModel | None:
        """The active model at this instant (stable for the caller)."""
        return self._active

    def require_snapshot(self) -> ActiveModel:
        active = self.snapshot()
        if active is None:
            raise ServingError("no active model; publish and activate one first")
        return active
