"""Named metric primitives and the central registry.

Three write-mode primitives — :class:`Counter`, :class:`Gauge`, and a
fixed-bucket log2 :class:`Histogram` — plus pull-mode *callbacks* for
state kept elsewhere under its own locks.  Everything hangs off one
:class:`MetricsRegistry` under canonical dotted names, and
:meth:`MetricsRegistry.export` flattens the lot into a single
JSON-serialisable ``{name: number}`` mapping: the unit every consumer
(JSONL snapshots, the Prometheus formatter, ``stats()`` sections,
``repro metrics-dump``) works from.

Histograms use power-of-two bucket bounds so ``observe`` is a
``frexp`` + two integer adds — cheap enough for the serving hot path —
while still giving interpolated p50/p95/p99 good to within one octave,
which is all an operator dashboard needs.
"""

from __future__ import annotations

import math
import re
import threading

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "flatten_metrics"]

#: Dotted metric names: segments of letters/digits/underscore/dash.
_NAME_RE = re.compile(r"^[A-Za-z0-9_\-]+(\.[A-Za-z0-9_\-]+)*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"invalid metric name {name!r}: expected dotted segments of "
            f"letters, digits, '_' or '-'")
    return name


class Counter:
    """A monotonically non-decreasing integer."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = _check_name(name)
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease "
                             f"(inc by {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time number that can move both ways."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = _check_name(name)
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


#: Bucket upper bounds 2^MIN_EXP .. 2^MAX_EXP (inclusive), plus +inf.
#: For latencies in milliseconds this spans ~8 µs to ~2.2 min.
_MIN_EXP = -7
_MAX_EXP = 17
BUCKET_BOUNDS: tuple[float, ...] = tuple(
    float(2.0 ** exp) for exp in range(_MIN_EXP, _MAX_EXP + 1)
) + (math.inf,)


def _bucket_index(value: float) -> int:
    """The first bucket whose upper bound is >= ``value``."""
    if value <= BUCKET_BOUNDS[0]:
        return 0
    mantissa, exponent = math.frexp(value)
    # frexp: value = mantissa * 2^exponent with mantissa in [0.5, 1);
    # the tight power-of-two ceiling is 2^(exponent-1) when the value
    # is itself an exact power of two.
    exp = exponent - 1 if mantissa == 0.5 else exponent
    if exp > _MAX_EXP:
        return len(BUCKET_BOUNDS) - 1
    return exp - _MIN_EXP


class Histogram:
    """Fixed log2-bucket histogram with interpolated percentiles.

    Exact ``count``/``sum``/``min``/``max``; percentiles are linear
    interpolations within the owning power-of-two bucket (the overflow
    bucket reports the exact observed max).  Memory is a flat int list,
    so a registry full of per-stage histograms stays tiny.
    """

    __slots__ = ("name", "_counts", "_count", "_sum", "_min", "_max",
                 "_lock")

    def __init__(self, name: str) -> None:
        self.name = _check_name(name)
        self._counts = [0] * len(BUCKET_BOUNDS)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = _bucket_index(value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def _snapshot(self) -> tuple[list[int], int, float, float, float]:
        with self._lock:
            return (list(self._counts), self._count, self._sum,
                    self._min, self._max)

    def quantile(self, q: float) -> float:
        """The value at quantile ``q`` in [0, 1] (0.0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        counts, count, _, minimum, maximum = self._snapshot()
        return self._quantile_from(counts, count, minimum, maximum, q)

    @staticmethod
    def _quantile_from(counts: list[int], count: int, minimum: float,
                       maximum: float, q: float) -> float:
        if count == 0:
            return 0.0
        rank = q * count
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                upper = BUCKET_BOUNDS[index]
                if not math.isfinite(upper):
                    return maximum
                lower = BUCKET_BOUNDS[index - 1] if index > 0 else 0.0
                # Clamp to the observed extremes so a single-sample
                # histogram reports the sample, not a bucket edge.
                lower = max(lower, minimum if math.isfinite(minimum)
                            else lower)
                upper = min(upper, maximum if math.isfinite(maximum)
                            else upper)
                if bucket_count == 1 or upper <= lower:
                    return upper
                fraction = (rank - cumulative) / bucket_count
                return lower + (upper - lower) * fraction
            cumulative += bucket_count
        return maximum

    def summary(self) -> dict[str, float]:
        """Flat scalar view: what :meth:`MetricsRegistry.export` emits."""
        counts, count, total, minimum, maximum = self._snapshot()
        if count == 0:
            return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0,
                    "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        quantile = lambda q: self._quantile_from(  # noqa: E731
            counts, count, minimum, maximum, q)
        return {
            "count": count,
            "sum": total,
            "mean": total / count,
            "min": minimum,
            "max": maximum,
            "p50": quantile(0.50),
            "p95": quantile(0.95),
            "p99": quantile(0.99),
        }


def flatten_metrics(prefix: str, value: object,
                    out: dict[str, object]) -> None:
    """Flatten a nested dict into dotted keys under ``prefix``.

    Scalars pass through; anything non-JSON-scalar is stringified so an
    export can never fail to serialise.
    """
    if isinstance(value, dict):
        for key, item in value.items():
            flatten_metrics(f"{prefix}.{key}" if prefix else str(key),
                            item, out)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            flatten_metrics(f"{prefix}.{index}", item, out)
    elif isinstance(value, bool) or value is None:
        out[prefix] = value
    elif isinstance(value, (int, float, str)):
        out[prefix] = value
    else:
        out[prefix] = str(value)


class MetricsRegistry:
    """One namespace of counters, gauges, histograms, and callbacks.

    Write-mode metrics are created on first use (``counter(name)`` is a
    get-or-create; asking for an existing name as a different type is
    an error).  Pull-mode callbacks let state kept elsewhere (cache
    stats, breakers, kernel profiles) publish a nested dict that
    :meth:`export` flattens under the callback's prefix —
    re-registering a prefix replaces the previous callback, so a rebuilt
    engine simply takes over its section.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._callbacks: dict[str, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                if name in self._callbacks:
                    raise ValueError(
                        f"metric name {name!r} already registered as a "
                        f"callback")
                # The constructor validates the name, so only creation
                # pays the regex: an invalid name is never stored, and a
                # lookup of a stored one needs no check.
                metric = self._metrics[name] = kind(name)
            elif not isinstance(metric, kind):
                raise ValueError(
                    f"metric {name!r} already exists as "
                    f"{type(metric).__name__}, not {kind.__name__}")
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def register_callback(self, prefix: str, callback) -> None:
        """Publish ``callback()`` (a scalar or nested dict) under ``prefix``."""
        _check_name(prefix)
        with self._lock:
            if prefix in self._metrics:
                raise ValueError(
                    f"metric name {prefix!r} already exists as a "
                    f"{type(self._metrics[prefix]).__name__}")
            self._callbacks[prefix] = callback

    def unregister_callback(self, prefix: str) -> None:
        with self._lock:
            self._callbacks.pop(prefix, None)

    def histograms(self, prefix: str = "") -> dict[str, Histogram]:
        """Registered histograms whose names start with ``prefix``."""
        with self._lock:
            return {name: metric for name, metric in self._metrics.items()
                    if isinstance(metric, Histogram)
                    and name.startswith(prefix)}

    def export(self) -> dict[str, object]:
        """One flat, sorted, JSON-serialisable ``{name: value}`` view.

        Counters/gauges emit their value under their own name;
        histograms expand to ``<name>.count/.mean/.p50/...``; callback
        payloads are flattened under their prefix.  A callback that
        raises contributes an ``<prefix>.error`` string instead of
        poisoning the whole export — telemetry must never take the
        service down with it.
        """
        with self._lock:
            metrics = list(self._metrics.items())
            callbacks = list(self._callbacks.items())
        out: dict[str, object] = {}
        for name, metric in metrics:
            if isinstance(metric, Histogram):
                flatten_metrics(name, metric.summary(), out)
            else:
                out[name] = metric.value
        for prefix, callback in callbacks:
            try:
                payload = callback()
            except Exception as exc:  # noqa: BLE001 - keep export alive
                out[f"{prefix}.error"] = str(exc)
                continue
            flatten_metrics(prefix, payload, out)
        return dict(sorted(out.items()))
