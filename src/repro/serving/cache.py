"""Bounded LRU caches for the serving hot path.

Two things dominate per-query latency: candidate generation (Yen /
diversified enumeration over the graph) and the model forward pass.
Commuter traffic is heavily skewed toward a small pool of OD hotspots,
so both steps repeat constantly.  :class:`CandidateCache` memoises
candidate sets per ``(source, target, strategy, k)`` query signature;
:class:`ScoreCache` memoises per-path model scores keyed by the path's
vertex sequence *and the model version*, so a hot-swap never serves a
stale score.

All caches are thread-safe and strictly bounded; eviction is
least-recently-used.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Hashable, Sequence
from dataclasses import dataclass

from repro.errors import ConfigError, ServingError
from repro.graph.network import RoadNetwork
from repro.graph.path import Path
from repro.ranking.training_data import TrainingDataConfig
from repro.serving.pipeline import normalise_split

__all__ = ["CacheStats", "LRUCache", "CandidateCache", "ScoreCache",
           "carve_budget"]

_MISSING = object()


def carve_budget(total: int, weights: Sequence[float]) -> list[int]:
    """Proportional integer shares of a shared cache budget, each >= 1.

    Shares are carved from the remaining budget — leaving one entry for
    every later share — so the result stays within ``total`` whenever
    the budget covers the floors
    (``sum(shares) <= max(total, len(weights))``).  The single
    allocation rule behind both the per-shard cache budgets
    (:func:`repro.serving.sharding.split_budget`) and the per-split
    score-cache quota segments.
    """
    if total < 1:
        raise ConfigError(f"budget must be >= 1, got {total}")
    mass = float(sum(weights))
    if mass <= 0.0:
        raise ConfigError("budget weights must sum to > 0")
    shares: list[int] = []
    taken = 0
    for position, weight in enumerate(weights):
        still_to_serve = len(weights) - position - 1
        ideal = int(total * float(weight) / mass)
        shares.append(max(1, min(ideal, total - taken - still_to_serve)))
        taken += shares[-1]
    return shares


@dataclass
class CacheStats:
    """Counters every cache exposes for instrumentation."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Accumulate ``other`` into this record (returns self).

        The aggregation point for every multi-segment view (score-cache
        quota segments, per-shard lane roll-ups): new counters added
        here propagate to all of them.
        """
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        return self

    @classmethod
    def merged(cls, stats: "Sequence[CacheStats]") -> "CacheStats":
        total = cls()
        for entry in stats:
            total.merge(entry)
        return total


class LRUCache:
    """A thread-safe, bounded least-recently-used mapping.

    ``get`` refreshes recency; ``put`` evicts the least recently used
    entry once ``capacity`` is exceeded.  Statistics are cumulative and
    survive :meth:`clear`.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable, default: object = None) -> object:
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.stats.misses += 1
                return default
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def get_many(self, keys: Sequence[Hashable]) -> dict[Hashable, object]:
        """Present entries for ``keys`` under one lock acquisition.

        Returns only the keys that were found (recency refreshed, stats
        counted per key).  The batched scorer uses this so a flush of
        hundreds of paths costs one lock round-trip, not one per path —
        which matters once concurrent workers share the cache.
        """
        found: dict[Hashable, object] = {}
        with self._lock:
            for key in keys:
                value = self._entries.get(key, _MISSING)
                if value is _MISSING:
                    self.stats.misses += 1
                    continue
                self._entries.move_to_end(key)
                self.stats.hits += 1
                found[key] = value
        return found

    def put_many(self, items: Sequence[tuple[Hashable, object]]) -> None:
        """Store many entries under one lock acquisition (LRU-evicting)."""
        with self._lock:
            for key, value in items:
                if key in self._entries:
                    self._entries.move_to_end(key)
                self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def peek(self, key: Hashable, default: object = None) -> object:
        """Read without touching recency or statistics (for tests/metrics)."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            return default if value is _MISSING else value

    def covers(self, keys: Sequence[Hashable]) -> bool:
        """Whether every key is present; like :meth:`peek`, read-only."""
        with self._lock:
            return all(key in self._entries for key in keys)

    def put(self, key: Hashable, value: object) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def keys(self) -> list[Hashable]:
        """Current keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class CandidateCache:
    """Memoises candidate generation per query signature.

    Candidate sets depend only on the graph and the generation
    configuration, never on the model, so entries stay valid across
    model hot-swaps.  When constructed with the ``network``, every key
    also embeds :attr:`RoadNetwork.fingerprint`, so a mutated graph
    (edge added/removed, weight changed via remove + re-add) can never
    serve stale candidates: old entries simply stop matching and age out
    via LRU.  Without a network the caller owns invalidation via
    :meth:`clear`.

    :meth:`lookup` / :meth:`store` accept a per-call ``network``
    override: the sharded serving plane generates candidates on varying
    graphs (a shard subnetwork, a cross-shard corridor, or the full
    network on a reachability retry) and keys each entry by the graph
    actually used, so one per-shard cache holds all three shapes without
    collisions.
    """

    def __init__(self, capacity: int = 1024,
                 network: RoadNetwork | None = None) -> None:
        self._cache = LRUCache(capacity)
        self._network = network

    @staticmethod
    def key_for(source: int, target: int, config: TrainingDataConfig,
                network: RoadNetwork | None = None) -> tuple:
        # Every field that changes the generated candidate set must be in
        # the key; threshold and examine_limit both alter D-TkDI output,
        # and the network fingerprint pins the graph content itself.
        key = (source, target, config.strategy.value, config.k,
               config.diversity_threshold, config.examine_limit)
        if network is not None:
            key += (network.fingerprint,)
        return key

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    def __len__(self) -> int:
        return len(self._cache)

    def lookup(self, source: int, target: int, config: TrainingDataConfig,
               network: RoadNetwork | None = None) -> list[Path] | None:
        cached = self._cache.get(
            self.key_for(source, target, config, network or self._network))
        return None if cached is None else list(cached)

    def store(self, source: int, target: int, config: TrainingDataConfig,
              paths: Sequence[Path],
              network: RoadNetwork | None = None) -> None:
        self._cache.put(
            self.key_for(source, target, config, network or self._network),
            tuple(paths))

    def clear(self) -> None:
        self._cache.clear()


class ScoreCache:
    """Memoises per-path model scores, keyed by model version.

    Featurisation and scoring of a path are deterministic given the
    model weights, so a path seen under the same model version can skip
    the forward pass entirely.  Keys embed the version string; after a
    hot-swap old entries simply stop matching and age out via LRU.

    ``quotas`` makes the cache *split-aware*: a ``{version: weight}``
    mapping (or ``(version, weight)`` pairs, e.g. a normalised
    ``ServingConfig.traffic_split``) carves the capacity into one LRU
    segment per named version, sized proportionally to its weight, plus
    a shared segment for every other version.  A low-traffic A/B
    variant's entries then live in their own segment and can never be
    evicted by the majority split's churn.
    """

    #: Fraction of a quota-segmented cache's capacity held back for the
    #: shared segment, so versions *outside* the split (per-request
    #: pins, canary one-offs) keep a working cache instead of the
    #: single-entry sliver that normalised quota weights would leave.
    SHARED_FRACTION = 8

    def __init__(self, capacity: int = 8192, quotas=None) -> None:
        self._segments: dict[str, LRUCache] = {}
        if quotas:
            # Same validation/normalisation as the traffic split itself
            # — quotas are a {version: weight} of the same shape — but
            # surfaced as the cache layer's ConfigError.
            try:
                pairs = normalise_split(quotas)
            except ServingError as exc:
                raise ConfigError(f"invalid score-cache quotas: {exc}") \
                    from None
            self._quotas = pairs
            shared_reserve = max(1, capacity // self.SHARED_FRACTION)
            shares = carve_budget(
                max(capacity - shared_reserve, len(pairs)),
                [weight for _, weight in pairs])
            for (version, _), share in zip(pairs, shares):
                self._segments[version] = LRUCache(share)
            # Unquoted versions (explicit pins outside the split) share
            # the held-back remainder, never a quoted segment.
            self._cache = LRUCache(max(capacity - sum(shares), 1))
        else:
            self._quotas = None
            self._cache = LRUCache(capacity)

    def _segment(self, version: str | None) -> LRUCache:
        if version is not None:
            quoted = self._segments.get(version)
            if quoted is not None:
                return quoted
        return self._cache

    @property
    def capacity(self) -> int:
        """Total entry budget across the shared and quota segments."""
        return self._cache.capacity + sum(
            cache.capacity for cache in self._segments.values())

    @property
    def has_quotas(self) -> bool:
        return bool(self._segments)

    @property
    def quotas(self):
        """The normalised ``((version, weight), ...)`` quota pairs, or
        ``None`` — comparable across caches because construction runs
        every input through the same normalisation."""
        return self._quotas

    @staticmethod
    def key_for(version: str | None, path: Path) -> tuple:
        return (version, path.vertices)

    @property
    def stats(self) -> CacheStats:
        """Cumulative statistics, aggregated over all quota segments."""
        if not self._segments:
            return self._cache.stats
        return CacheStats.merged(
            [cache.stats
             for cache in [self._cache, *self._segments.values()]])

    def quota_stats(self) -> dict[str, dict[str, float]]:
        """Per-segment statistics (empty when no quotas are configured)."""
        if not self._segments:
            return {}
        stats = {version: cache.stats.as_dict()
                 for version, cache in sorted(self._segments.items())}
        stats["(shared)"] = self._cache.stats.as_dict()
        return stats

    def __len__(self) -> int:
        return len(self._cache) + sum(
            len(cache) for cache in self._segments.values())

    def lookup(self, version: str | None, path: Path) -> float | None:
        return self._segment(version).get(self.key_for(version, path))

    def lookup_many(self, version: str | None,
                    paths: Sequence[Path]) -> dict[tuple[int, ...], float]:
        """Cached scores for ``paths``, keyed by vertex sequence.

        One lock acquisition for the whole group (all paths of one call
        share a version, hence a segment); absent paths are simply
        missing from the result.
        """
        keys = [self.key_for(version, path) for path in paths]
        found = self._segment(version).get_many(keys)
        return {key[1]: value for key, value in found.items()}

    def covers(self, version: str | None, paths: Sequence[Path]) -> bool:
        """Whether every path has a score cached under ``version``; counts
        no hit or miss and leaves LRU order alone (one lock round-trip)."""
        return self._segment(version).covers(
            [self.key_for(version, path) for path in paths])

    def store(self, version: str | None, path: Path, score: float) -> None:
        self._segment(version).put(self.key_for(version, path), float(score))

    def store_many(self, version: str | None,
                   scored: Sequence[tuple[Path, float]]) -> None:
        self._segment(version).put_many(
            [(self.key_for(version, path), float(score))
             for path, score in scored])

    def clear(self) -> None:
        self._cache.clear()
        for cache in self._segments.values():
            cache.clear()
