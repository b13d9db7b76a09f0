"""Bounded LRU caches for the serving hot path.

Two things dominate per-query latency: candidate generation (Yen /
diversified enumeration over the graph) and the model forward pass.
Commuter traffic is heavily skewed toward a small pool of OD hotspots,
so both steps repeat constantly.  :class:`CandidateCache` memoises
candidate sets per ``(source, target, strategy, k)`` query signature,
and each :class:`CandidateEntry` also carries the scores one model
version gave its candidates, tagged with that version: a hot request
costs one lookup, and after a hot-swap the tag no longer matches, so a
stale score is never served.  Scores thus live on at most
``capacity`` entries and leave with them.

While one caller enumerates a signature's candidates, other callers
asking for the same signature wait for its result instead of
enumerating again (single flight, :meth:`LRUCache.get_or_make`).

All caches are thread-safe and strictly bounded; eviction is
least-recently-used.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.graph.path import Path
from repro.ranking.training_data import TrainingDataConfig

__all__ = ["CacheStats", "LRUCache", "CandidateCache", "CandidateEntry"]

_MISSING = object()


class _Flight:
    """One value being made; waiters block on ``done``."""

    __slots__ = ("done", "value")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.value = _MISSING


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
        self._flights: dict[Hashable, _Flight] = {}
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

    def find(self, key: Hashable) -> object | None:
        """Like :meth:`get`, but counting nothing: for a probe whose hit
        is counted where the value is used (:meth:`count_hit`) and whose
        miss is counted where the value is made."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                return None
            self._entries.move_to_end(key)
            return value

    def count_hit(self) -> None:
        """Count the hit of a value :meth:`find` returned."""
        with self._lock:
            self.stats.hits += 1

    def get_or_make(self, key: Hashable,
                    make: Callable[[], object]) -> tuple[object, bool]:
        """``(value, hit)``: the entry under ``key``, else ``make()``'s
        result, stored.

        Single flight: while one caller makes a key's value, the others
        asking for that key wait for it and count a hit.  When ``make``
        raises, each waiter makes its own value, so an error is still
        only its own caller's answer.
        """
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return value, True
            flight = self._flights.get(key)
            leader = flight is None
            if leader:
                flight = self._flights[key] = _Flight()
                self.stats.misses += 1
        if leader:
            try:
                flight.value = make()
                self.put(key, flight.value)
            finally:
                with self._lock:
                    del self._flights[key]
                flight.done.set()
            return flight.value, False
        flight.done.wait()
        with self._lock:
            if flight.value is not _MISSING:
                self.stats.hits += 1
                return flight.value, True
            self.stats.misses += 1
        value = make()
        self.put(key, value)
        return value, False

    def peek(self, key: Hashable, default: object = None) -> object:
        """Read without touching recency or statistics (for tests/metrics)."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            return default if value is _MISSING else value

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


class CandidateEntry:
    """One cached candidate set, plus the scores one model version gave it.

    ``scored`` is ``(version, scores)`` or ``None``.  It is replaced
    whole, by one attribute store, so a reader sees the old pair or the
    new one, never a mix.
    """

    __slots__ = ("paths", "scored")

    def __init__(self, paths: Sequence[Path]) -> None:
        self.paths = tuple(paths)
        self.scored: tuple[str, list[float]] | None = None

    def scores_for(self, version: str) -> list[float] | None:
        """The memoised scores when they are tagged ``version``."""
        scored = self.scored
        if scored is not None and scored[0] == version:
            return scored[1]
        return None


class CandidateCache:
    """Memoises candidate generation per query signature.

    Candidate sets depend only on the graph and the generation
    configuration, never on the model, so entries stay valid across
    model hot-swaps; the scores on an entry are tagged with the version
    that produced them.  The graph is sealed once built, so keys hold
    only the generation configuration; :meth:`clear` drops every entry.
    ``score_stats`` counts score-memo hits and misses per path.
    """

    def __init__(self, capacity: int = 1024) -> None:
        self._cache = LRUCache(capacity)
        self.score_stats = CacheStats()
        self._score_lock = threading.Lock()

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
        entry = self._cache.get(self.key_for(source, target, config))
        return None if entry is None else list(entry.paths)

    def store(self, source: int, target: int, config: TrainingDataConfig,
              paths: Sequence[Path]) -> None:
        self._cache.put(self.key_for(source, target, config),
                        CandidateEntry(paths))

    def probe(self, source: int, target: int,
              config: TrainingDataConfig) -> CandidateEntry | None:
        """The cached entry, counting nothing: the caller counts a hit
        with :meth:`count_hit` when it uses the entry, and :meth:`resolve`
        counts a miss when it makes the set."""
        return self._cache.find(self.key_for(source, target, config))

    def count_hit(self) -> None:
        """Count the use of an entry :meth:`probe` returned."""
        self._cache.count_hit()

    def resolve(self, source: int, target: int, config: TrainingDataConfig,
                generate: Callable[[], Sequence[Path]]
                ) -> tuple[CandidateEntry, bool]:
        """``(entry, hit)``, generating and storing the set on a miss;
        concurrent misses on one signature generate it once."""
        return self._cache.get_or_make(
            self.key_for(source, target, config),
            lambda: CandidateEntry(generate()))

    def count_scores(self, hits: int, misses: int) -> None:
        """Count score-memo lookups, in paths."""
        with self._score_lock:
            self.score_stats.hits += hits
            self.score_stats.misses += misses

    def clear(self) -> None:
        self._cache.clear()
