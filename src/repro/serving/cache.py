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

from repro.errors import ConfigError
from repro.graph.path import Path
from repro.ranking.training_data import TrainingDataConfig

__all__ = ["CacheStats", "LRUCache", "CandidateCache", "ScoreCache"]

_MISSING = object()


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
    model hot-swaps.  The graph is sealed once built, so keys hold only
    the generation configuration; :meth:`clear` drops every entry.
    """

    def __init__(self, capacity: int = 1024) -> None:
        self._cache = LRUCache(capacity)

    @staticmethod
    def key_for(source: int, target: int,
                config: TrainingDataConfig) -> tuple:
        # Every field that changes the generated candidate set must be in
        # the key; threshold and examine_limit both alter D-TkDI output.
        return (source, target, config.strategy.value, config.k,
                config.diversity_threshold, config.examine_limit)

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    def __len__(self) -> int:
        return len(self._cache)

    def lookup(self, source: int, target: int,
               config: TrainingDataConfig) -> list[Path] | None:
        cached = self._cache.get(self.key_for(source, target, config))
        return None if cached is None else list(cached)

    def store(self, source: int, target: int, config: TrainingDataConfig,
              paths: Sequence[Path]) -> None:
        self._cache.put(self.key_for(source, target, config), tuple(paths))

    def clear(self) -> None:
        self._cache.clear()


class ScoreCache:
    """Memoises per-path model scores, keyed by model version.

    Featurisation and scoring of a path are deterministic given the
    model weights, so a path seen under the same model version can skip
    the forward pass entirely.  Keys embed the version string; after a
    hot-swap old entries simply stop matching and age out via LRU.
    """

    def __init__(self, capacity: int = 8192) -> None:
        self._cache = LRUCache(capacity)

    @staticmethod
    def key_for(version: str | None, path: Path) -> tuple:
        return (version, path.vertices)

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    def __len__(self) -> int:
        return len(self._cache)

    def lookup_many(self, version: str | None,
                    paths: Sequence[Path]) -> dict[tuple[int, ...], float]:
        """Cached scores for ``paths``, keyed by vertex sequence.

        One lock acquisition for the whole group; absent paths are
        simply missing from the result.
        """
        keys = [self.key_for(version, path) for path in paths]
        found = self._cache.get_many(keys)
        return {key[1]: value for key, value in found.items()}

    def covers(self, version: str | None, paths: Sequence[Path]) -> bool:
        """Whether every path has a score cached under ``version``; counts
        no hit or miss and leaves LRU order alone (one lock round-trip)."""
        return self._cache.covers(
            [self.key_for(version, path) for path in paths])

    def store_many(self, version: str | None,
                   scored: Sequence[tuple[Path, float]]) -> None:
        self._cache.put_many(
            [(self.key_for(version, path), float(score))
             for path, score in scored])

    def clear(self) -> None:
        self._cache.clear()
