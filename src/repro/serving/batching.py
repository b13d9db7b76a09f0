"""Coalesced scoring: one forward pass for many requests' candidates.

Per-query scoring wastes the batch dimension — a typical query carries
only ``k`` ≈ 5 candidate paths, so the GRU runs at batch 5.
:meth:`BatchingScorer.score_many` takes the candidate lists of many
requests (one engine flush), concatenates
them into chunks of up to ``max_batch_size`` paths, runs one forward
pass per chunk (``PathRank.score_paths``), and scatters the scores back
to each list.  A path's score does not depend on its chunk neighbours,
so it is what sequential per-query scoring would produce.

Duplicate paths inside one call are scored once, and a
:class:`~repro.serving.cache.ScoreCache` (keyed by model version) lets
repeat paths skip the forward pass across calls.

Paths are sorted lexicographically before chunking, so paths that
share a prefix land in one chunk: the fused kernel
(:mod:`repro.nn.fused`) runs every shared prefix (and suffix) of a
chunk once.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence

import numpy as np

from repro.core.model import PathRank
from repro.errors import ServingError
from repro.graph.path import Path
from repro.serving.cache import ScoreCache

__all__ = ["BatchingScorer"]


class BatchingScorer:
    """Scores groups of candidate lists in coalesced batches."""

    def __init__(self, max_batch_size: int = 64,
                 score_cache: ScoreCache | None = None) -> None:
        if max_batch_size < 1:
            raise ServingError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        self.max_batch_size = max_batch_size
        self.score_cache = score_cache
        self._lock = threading.RLock()
        # Forward-pass accounting, for instrumentation and benchmarks.
        self.batches_run = 0
        self.paths_scored = 0
        self.cache_hits = 0
        #: Chaos seam (``scorer.flush`` injection point): armed by
        #: :meth:`RankingService.arm_faults`, ``None`` keeps the flush
        #: hot path at a single attribute check.
        self.faults = None

    def as_dict(self) -> dict[str, int]:
        """Forward-pass counters as one consistent snapshot.

        Taken under the scorer lock so a concurrent flush can't show a
        batch whose paths haven't been added yet — the view stats() and
        the metrics registry publish.
        """
        with self._lock:
            return {
                "batches_run": self.batches_run,
                "paths_scored": self.paths_scored,
                "cache_hits": self.cache_hits,
            }

    def score_many(self, model: PathRank,
                   candidate_lists: Sequence[Sequence[Path]],
                   model_version: str | None = None) -> list[np.ndarray]:
        """Score a group of candidate lists in one coalesced flush.

        Scores match per-query sequential scoring: each path's result is
        independent of its batch neighbours.  Chunks are drawn from a
        lexicographic order, so paths sharing a prefix are scored
        together and the prefix runs once.  The whole flush runs under
        the scorer lock, so the group is scored by *this* model even when
        other threads score against a different (hot-swapped) snapshot
        concurrently.
        """
        if not candidate_lists:
            return []
        with self._lock:
            if self.faults is not None:
                self.faults.fire("scorer.flush")

            # The score cache is keyed by model version; with no version
            # to key on, two different models would silently share
            # entries, so the cache only participates when a version is
            # supplied.
            use_cache = self.score_cache is not None \
                and model_version is not None

            # Deduplicate by vertex sequence, then consult the score
            # cache for the whole flush at once (one lock round-trip).
            unique: dict[tuple[int, ...], Path] = {}
            for paths in candidate_lists:
                for path in paths:
                    unique.setdefault(path.vertices, path)
            resolved: dict[tuple[int, ...], float] = {}
            if use_cache:
                resolved = self.score_cache.lookup_many(
                    model_version, list(unique.values()))
                self.cache_hits += len(resolved)
                for key in resolved:
                    del unique[key]

            # Sort lexicographically before chunking so paths that share
            # a prefix land in one chunk, where the kernel's prefix trie
            # runs that prefix once.  Scores are scattered back through
            # `resolved`, so ordering is free.
            to_score = sorted(unique.values(), key=lambda path: path.vertices)
            chunks = [to_score[start:start + self.max_batch_size]
                      for start in range(0, len(to_score),
                                         self.max_batch_size)]
            # Models that can score several chunks concurrently (the
            # execution plane's pool proxy) expose ``score_paths_many``;
            # everything upstream of the forward pass — dedup, the score
            # cache, counters — is identical on both dispatch paths.
            score_chunks = getattr(model, "score_paths_many", None)
            if score_chunks is not None and chunks:
                all_scores = score_chunks(chunks)
            else:
                all_scores = (model.score_paths(chunk) for chunk in chunks)
            for chunk, scores in zip(chunks, all_scores):
                self.batches_run += 1
                self.paths_scored += len(chunk)
                scored = list(zip(chunk, scores.tolist()))
                for path, score in scored:
                    resolved[path.vertices] = score
                if use_cache:
                    self.score_cache.store_many(model_version, scored)

        return [np.array([resolved[path.vertices] for path in paths],
                         dtype=float)
                for paths in candidate_lists]

    def score_paths(self, model: PathRank, paths: Sequence[Path],
                    model_version: str | None = None) -> np.ndarray:
        """:meth:`score_many` for a single candidate list."""
        return self.score_many(model, [paths], model_version)[0]
