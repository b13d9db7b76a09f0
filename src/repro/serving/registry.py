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

Beyond the single active slot, any number of versions can be *resident*
at once via :meth:`pin` / :meth:`resolve`: weighted A/B traffic splits
and per-request version pinning (``RankRequest.model_version``) score
against resident snapshots side by side with the active model, each
pre-compiled for the fused scoring backend exactly like an activation.
Explicit pins are counted and balanced by :meth:`release` — releasing
the last pin on a superseded version frees its snapshot, so its model
and compiled kernel do not outlive their usefulness.
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


@dataclass
class _Resident:
    """One resident (pinned) snapshot plus its explicit pin count.

    ``pins`` counts balanced :meth:`ModelRegistry.pin` /
    :meth:`ModelRegistry.release` pairs.  Residents created implicitly
    by :meth:`ModelRegistry.resolve` (traffic splits, per-request
    version pinning) keep ``pins == 0``: they stay resident until an
    :meth:`ModelRegistry.unpin`, exactly as before, but an explicit
    pin-holder releasing its last pin drops the snapshot — and with it
    the model object, whose compiled fused kernel then falls out of the
    weakly-keyed kernel cache instead of leaking for the process
    lifetime.
    """

    snapshot: "ActiveModel"
    pins: int = 0


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
        #: Version -> resident snapshot (plus pin count) for A/B traffic
        #: splits and per-request pinning: loaded once, served lock-free.
        self._pinned: dict[str, _Resident] = {}
        self._generation = 0
        self._lock = threading.Lock()
        #: Lifecycle listeners, called as ``listener(event, version)``
        #: outside the registry lock (see :meth:`subscribe`).
        self._listeners: list = []

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

    def has_version(self, version: str) -> bool:
        return self._path_for(version).exists()

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
        active = self._load_snapshot(version)
        with self._lock:
            self._active = active
            resident = self._pinned.get(version)
            if resident is not None:
                # Refresh an already-resident pin so split traffic sees
                # the fresh snapshot (pin count carries over) — but
                # never *grow* the pinned set here, or every hot-swap of
                # a long-running service would leak its superseded model
                # into memory.
                resident.snapshot = active
        self._notify("activate", version)
        return active

    def _load_snapshot(self, version: str) -> ActiveModel:
        """Load ``version`` into a ready-to-serve immutable snapshot."""
        model = self.load(version)
        # Warm the fused inference kernel up front so the first request
        # against this snapshot pays no compile latency.
        compiled_for(model)
        _, metadata = load_state(self._path_for(version))
        with self._lock:
            self._generation += 1
            return ActiveModel(version=version, model=model,
                               generation=self._generation,
                               metadata=dict(metadata))

    def subscribe(self, listener) -> None:
        """Register a lifecycle listener: ``listener(event, version)``.

        Events: ``"activate"`` after a version goes live and
        ``"deactivate"`` after the active slot is cleared (``version``
        names the model that *was* active).  Listeners run outside the
        registry lock, in the mutating caller's thread; exceptions are
        swallowed — a sick observer must not break a hot-swap.  The
        execution plane uses this to unlink the shared-memory weight
        segments of versions that can no longer serve.
        """
        self._listeners.append(listener)

    def unsubscribe(self, listener) -> None:
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _notify(self, event: str, version: str) -> None:
        for listener in list(self._listeners):
            try:
                listener(event, version)
            except Exception:  # noqa: BLE001 - observers must not break swaps
                pass

    def deactivate(self) -> None:
        with self._lock:
            previous = self._active
            self._active = None
        if previous is not None:
            self._notify("deactivate", previous.version)

    def snapshot(self) -> ActiveModel | None:
        """The active model at this instant (stable for the caller)."""
        return self._active

    def require_snapshot(self) -> ActiveModel:
        active = self.snapshot()
        if active is None:
            raise ServingError("no active model; publish and activate one first")
        return active

    # ------------------------------------------------------------------
    # Multi-model residency (A/B splits, per-request pinning)
    # ------------------------------------------------------------------
    def pin(self, version: str) -> ActiveModel:
        """Make ``version`` resident and take one pin on it.

        Pinned snapshots serve per-request version pinning and A/B
        traffic splits side by side with the active model.  Pins are
        counted: every ``pin`` must be balanced by a :meth:`release`,
        and releasing the last pin on a version nothing else holds (e.g.
        one superseded by a later :meth:`activate`) frees the snapshot —
        and thereby its model and compiled scoring kernel.  Pinning the
        currently *active* version reuses the live snapshot rather than
        loading a duplicate model (which previously left two copies of
        the same weights — and two compiled kernels — resident).

        At most one load happens per version even under concurrent
        callers (a rare double load resolves to the first winner).
        """
        while True:
            resident = self._ensure_resident(version)
            with self._lock:
                # Re-check residency: a concurrent last-release may have
                # evicted the record between the lookup and this bump.
                if self._pinned.get(version) is resident:
                    resident.pins += 1
                    return resident.snapshot

    def _ensure_resident(self, version: str) -> _Resident:
        """The resident record for ``version``, loading it if needed."""
        with self._lock:
            resident = self._pinned.get(version)
            if resident is not None:
                return resident
            active = self._active
        if active is not None and active.version == version:
            loaded = active  # reuse the live snapshot: no duplicate load
        else:
            loaded = self._load_snapshot(version)
        with self._lock:
            return self._pinned.setdefault(version, _Resident(loaded))

    def release(self, version: str) -> None:
        """Give back one :meth:`pin`; the last release frees the snapshot.

        Raises :class:`ServingError` for a version without outstanding
        pins — an unbalanced release is a caller bug that would silently
        evict someone else's resident model.
        """
        with self._lock:
            resident = self._pinned.get(version)
            if resident is None or resident.pins < 1:
                raise ServingError(
                    f"model version {version!r} has no outstanding pins")
            resident.pins -= 1
            if resident.pins == 0:
                # Implicit (resolve-created) residency is gone too: the
                # next split request re-resolves, and a superseded
                # version's model becomes garbage right now.
                del self._pinned[version]

    def unpin(self, version: str | None = None) -> None:
        """Force-drop one resident version (all with ``None``).

        Ignores pin counts — this is the operator's big hammer for
        evicting split targets after an experiment ends; balanced
        pin-holders should use :meth:`release`.
        """
        with self._lock:
            if version is None:
                self._pinned.clear()
            else:
                self._pinned.pop(version, None)

    def pinned_versions(self) -> dict[str, int]:
        """Resident versions and their outstanding explicit pin counts."""
        with self._lock:
            return {version: resident.pins
                    for version, resident in self._pinned.items()}

    def resolve(self, version: str | None = None) -> ActiveModel | None:
        """The snapshot a request routed to ``version`` should score on.

        ``None`` means "whatever is active" (may itself be ``None``);
        a concrete version resolves to the active snapshot when it
        matches, else to a resident pinned snapshot, loading and pinning
        it on first use.  Raises :class:`ServingError` for versions that
        were never published.
        """
        if version is None:
            return self.snapshot()
        active = self._active
        if active is not None and active.version == version:
            return active
        # Residency without a pin: split/pinned-request targets stay
        # loaded across requests but don't accumulate pin counts, so a
        # single unpin (or a pin-holder's last release) can evict them.
        return self._ensure_resident(version).snapshot
