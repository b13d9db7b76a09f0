"""Coalesced scoring: one forward pass for many requests' candidates.

Per-query scoring wastes the batch dimension — a typical query carries
only ``k`` ≈ 5 candidate paths, so the GRU runs at batch 5.
:meth:`BatchingScorer.score_many` takes the candidate lists of many
requests (one engine flush), concatenates
them into chunks of up to ``max_batch_size`` paths, runs one forward
pass per chunk (``PathRank.score_paths``), and scatters the scores back
to each list.  A path's score equals what sequential per-query
scoring produces to float32 rounding: the chunk a path lands in can
move the last bits of its score, never more.

Duplicate paths inside one call are scored once.  Memoisation across
calls is not the scorer's business: the service keeps each candidate
set's scores on its candidate-cache entry and only sends the sets
without them here.

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

__all__ = ["BatchingScorer"]


class BatchingScorer:
    """Scores groups of candidate lists in coalesced batches."""

    def __init__(self, max_batch_size: int = 64) -> None:
        if max_batch_size < 1:
            raise ServingError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        self.max_batch_size = max_batch_size
        self._lock = threading.RLock()
        # Forward-pass accounting, for instrumentation and benchmarks.
        self.batches_run = 0
        self.paths_scored = 0

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
            }

    def score_many(self, model: PathRank,
                   candidate_lists: Sequence[Sequence[Path]]
                   ) -> list[np.ndarray]:
        """Score a group of candidate lists in one coalesced flush.

        Scores equal per-query sequential scoring to float32 rounding.
        Chunks are drawn from a lexicographic order, so paths sharing a
        prefix are scored together and the prefix runs once.  The whole flush runs under
        the scorer lock, so the group is scored by *this* model even when
        other threads score against a different (hot-swapped) snapshot
        concurrently.
        """
        if not candidate_lists:
            return []
        with self._lock:
            # Deduplicate by vertex sequence.
            unique: dict[tuple[int, ...], Path] = {}
            for paths in candidate_lists:
                for path in paths:
                    unique.setdefault(path.vertices, path)
            resolved: dict[tuple[int, ...], float] = {}

            # Sort lexicographically before chunking so paths that share
            # a prefix land in one chunk, where the kernel's prefix trie
            # runs that prefix once.  Scores are scattered back through
            # `resolved`, so ordering is free.
            to_score = sorted(unique.values(), key=lambda path: path.vertices)
            chunks = [to_score[start:start + self.max_batch_size]
                      for start in range(0, len(to_score),
                                         self.max_batch_size)]
            for chunk in chunks:
                scores = model.score_paths(chunk)
                self.batches_run += 1
                self.paths_scored += len(chunk)
                for path, score in zip(chunk, scores.tolist()):
                    resolved[path.vertices] = score

        return [np.array([resolved[path.vertices] for path in paths],
                         dtype=float)
                for paths in candidate_lists]
