"""Per-request stage tracing with sampling and slow-request exemplars.

A :class:`Trace` is a flat list of :class:`Span` records — one per
pipeline stage a request passed through (``admit``,
``candidates``, ``queue_wait``, ``flush_wait``, ``score``,
``assemble``) — cheap enough to ride on the
:class:`~repro.serving.pipeline.QueryState` itself.  Spans store their
absolute ``perf_counter`` start, so offsets stay consistent even when
the engine rebases a trace's origin to the submit time.

The :class:`Tracer` is the policy layer: *stride sampling* decides
which requests carry a trace at all (the default rate of 0 makes the
whole plane a single ``None`` check on the hot path), finished traces
feed per-stage latency histograms in a
:class:`~repro.obs.metrics.MetricsRegistry`, and a bounded min-heap
:class:`SlowRequestBuffer` retains the full span breakdown of the
top-K slowest requests — the exemplars an operator actually wants when
p99 moves.
"""

from __future__ import annotations

import heapq
import threading
import time
from contextlib import contextmanager

from repro.obs.metrics import MetricsRegistry

__all__ = ["Span", "Trace", "Tracer", "SlowRequestBuffer", "STAGE_PREFIX"]

#: Registry prefix for per-stage latency histograms.
STAGE_PREFIX = "serving.stage"


class Span:
    """One timed stage within a request."""

    __slots__ = ("name", "start", "duration_ms", "attrs")

    def __init__(self, name: str, start: float, duration_ms: float,
                 attrs: dict[str, object] | None = None) -> None:
        self.name = name
        self.start = start          # absolute perf_counter seconds
        self.duration_ms = duration_ms
        self.attrs = attrs

    def as_dict(self, origin: float) -> dict[str, object]:
        record: dict[str, object] = {
            "name": self.name,
            "offset_ms": (self.start - origin) * 1000.0,
            "duration_ms": self.duration_ms,
        }
        if self.attrs:
            record.update(self.attrs)
        return record


class Trace:
    """One request's span log.

    Spans are appended by whichever pipeline thread currently owns the
    request; ownership hand-offs (worker -> scoring thread -> waiter)
    are already sequenced by the engine's condvars, so no lock is
    needed.  ``started`` is the trace origin for offsets; the engine
    rebases it to the submit time so queue wait shows up at offset 0.
    """

    __slots__ = ("label", "started", "spans", "latency_ms")

    def __init__(self, label: str | None = None,
                 started: float | None = None) -> None:
        self.label = label
        self.started = started if started is not None \
            else time.perf_counter()
        self.spans: list[Span] = []
        self.latency_ms: float | None = None

    def add(self, name: str, start: float, end: float,
            **attrs: object) -> None:
        """Record a stage measured between two ``perf_counter`` readings."""
        self.spans.append(Span(name, start, (end - start) * 1000.0,
                               attrs or None))

    @contextmanager
    def span(self, name: str, **attrs: object):
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.add(name, start, time.perf_counter(), **attrs)

    def as_dict(self) -> dict[str, object]:
        record: dict[str, object] = {
            "spans": [span.as_dict(self.started) for span in self.spans],
        }
        if self.label is not None:
            record["label"] = self.label
        if self.latency_ms is not None:
            record["latency_ms"] = self.latency_ms
        return record


class SlowRequestBuffer:
    """Top-K request records by latency, bounded memory.

    A min-heap keyed on latency: offering a record costs one comparison
    against the current floor once the buffer is full, so the common
    fast request pays almost nothing.
    """

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._heap: list[tuple[float, int, dict[str, object]]] = []
        self._sequence = 0
        self._lock = threading.Lock()

    def offer(self, latency_ms: float, record: dict[str, object]) -> bool:
        """Keep ``record`` if it is among the slowest seen; report if kept."""
        if self.capacity == 0:
            return False
        with self._lock:
            if len(self._heap) < self.capacity:
                self._sequence += 1
                heapq.heappush(self._heap,
                               (latency_ms, self._sequence, record))
                return True
            if latency_ms <= self._heap[0][0]:
                return False
            self._sequence += 1
            heapq.heapreplace(self._heap,
                              (latency_ms, self._sequence, record))
            return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def snapshot(self) -> list[dict[str, object]]:
        """Retained records, slowest first."""
        with self._lock:
            entries = sorted(self._heap, key=lambda e: (-e[0], e[1]))
        return [record for _, _, record in entries]

    def clear(self) -> None:
        with self._lock:
            self._heap.clear()


class Tracer:
    """Sampling policy + aggregation sink for per-request traces.

    ``sample`` is the fraction of requests that carry a trace: 0 (the
    default) disables tracing entirely — :meth:`maybe_start` is a
    single attribute check — and 1.0 traces every request.  Fractional
    rates use deterministic stride sampling (every ``round(1/rate)``-th
    request), which keeps the choice cheap and replay-stable.

    :meth:`finish` folds a completed trace into per-stage histograms
    (``serving.stage.<name>`` in the attached registry) and offers the
    full breakdown to the slow-request exemplar buffer.
    """

    def __init__(self, sample: float = 0.0, max_exemplars: int = 16,
                 metrics: MetricsRegistry | None = None) -> None:
        if not 0.0 <= sample <= 1.0:
            raise ValueError(f"sample must be in [0, 1], got {sample}")
        self.sample = sample
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.exemplars = SlowRequestBuffer(max_exemplars)
        self._stride = 0 if sample <= 0.0 \
            else 1 if sample >= 1.0 else max(1, round(1.0 / sample))
        self._tick = 0
        self._finished = 0
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self._stride > 0

    @property
    def finished(self) -> int:
        with self._lock:
            return self._finished

    def maybe_start(self, label: str | None = None) -> Trace | None:
        """A fresh :class:`Trace` for this request, or ``None`` if unsampled."""
        if self._stride == 0:
            return None
        if self._stride > 1:
            with self._lock:
                self._tick += 1
                if self._tick % self._stride:
                    return None
        return Trace(label)

    def finish(self, trace: Trace, latency_ms: float,
               **info: object) -> None:
        """Fold a completed trace into histograms + exemplars."""
        trace.latency_ms = latency_ms
        for span in trace.spans:
            self.metrics.histogram(
                f"{STAGE_PREFIX}.{span.name}").observe(span.duration_ms)
        with self._lock:
            self._finished += 1
        if self.exemplars.capacity > 0:
            record: dict[str, object] = dict(info)
            record.update(trace.as_dict())
            record["latency_ms"] = latency_ms
            self.exemplars.offer(latency_ms, record)

    def stage_summary(self) -> dict[str, dict[str, float]]:
        """Per-stage latency summaries (p50/p95/mean/...), by stage name."""
        prefix = f"{STAGE_PREFIX}."
        return {
            name[len(prefix):]: histogram.summary()
            for name, histogram
            in sorted(self.metrics.histograms(prefix).items())
        }

    def as_dict(self) -> dict[str, object]:
        """The ``stats()["trace"]`` section: policy, stages, exemplars."""
        return {
            "sample": self.sample,
            "finished": self.finished,
            "stages": self.stage_summary(),
            "slow_requests": self.exemplars.snapshot(),
        }
