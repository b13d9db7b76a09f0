"""Getting telemetry out of the process: JSONL time series + exposition.

Two consumers, two formats:

* **JSONL timelines** — :class:`SnapshotExporter` is a daemon thread
  that periodically calls a source's ``export()`` (a flat
  ``{name: value}`` dict, i.e. a :class:`~repro.obs.metrics.MetricsRegistry`)
  and appends one JSON line per snapshot::

      {"ts": 1754650000.12, "elapsed_s": 2.5, "metrics": {...}}

  ``ts`` is wall-clock (``time.time``), ``elapsed_s`` is monotonic
  seconds since the exporter started.  A final snapshot is always
  written on :meth:`SnapshotExporter.stop`, so even a run shorter than
  one interval leaves a usable timeline.

* **Prometheus-style text exposition** — :func:`prometheus_lines`
  renders a registry in the ``name{label="..."} value`` text format
  (dots become underscores; histograms expand to cumulative ``_bucket``
  series plus ``_sum``/``_count``), for scraping or eyeballing.

:func:`load_timeline` / :func:`summarise_timeline` read a JSONL file
back; ``repro metrics-dump`` is a thin CLI wrapper over them.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from pathlib import Path as FilePath

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = ["SnapshotExporter", "prometheus_lines",
           "prometheus_snapshot_lines", "load_timeline",
           "summarise_timeline"]


class SnapshotExporter:
    """Periodically append ``source.export()`` snapshots to a JSONL file.

    ``source`` is anything with an ``export() -> dict`` (usually a
    :class:`MetricsRegistry`).  The thread is a daemon and every write
    failure after the first successful open is swallowed into
    ``write_errors`` — telemetry export must never take the serving
    process down.  Usable as a context manager::

        with SnapshotExporter(service.metrics, "run.jsonl", 0.5):
            run_workload(...)
    """

    def __init__(self, source, path: str | FilePath,
                 interval_s: float = 1.0) -> None:
        if interval_s <= 0.0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.source = source
        self.path = FilePath(path)
        self.interval_s = interval_s
        self.snapshots_written = 0
        self.write_errors = 0
        self._origin = time.perf_counter()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text("")  # fresh timeline per run; fail early

    def snapshot(self) -> None:
        """Write one snapshot line right now."""
        line = json.dumps({
            "ts": time.time(),
            "elapsed_s": time.perf_counter() - self._origin,
            "metrics": self.source.export(),
        }, sort_keys=True)
        with self._lock:
            try:
                with self.path.open("a", encoding="utf-8") as handle:
                    handle.write(line + "\n")
            except OSError:
                self.write_errors += 1
            else:
                self.snapshots_written += 1

    def start(self) -> "SnapshotExporter":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="metrics-exporter")
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.snapshot()

    def stop(self) -> None:
        """Stop the thread and flush one final snapshot."""
        thread = self._thread
        if thread is not None:
            self._stop.set()
            thread.join()
            self._thread = None
        self.snapshot()

    def __enter__(self) -> "SnapshotExporter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


_PROM_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """A metric name the Prometheus text format accepts."""
    sanitised = _PROM_NAME_RE.sub("_", name.replace(".", "_"))
    if sanitised and sanitised[0].isdigit():
        sanitised = "_" + sanitised
    return sanitised


def _prom_value(value: object) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        if isinstance(value, float) and math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        return repr(value) if isinstance(value, float) else str(value)
    return "NaN"  # non-numeric callback payloads have no exposition value


def prometheus_lines(registry: MetricsRegistry) -> list[str]:
    """Render a registry in the Prometheus text exposition format.

    Counters/gauges become single samples with ``# TYPE`` headers;
    histograms expand into cumulative ``_bucket{le="..."}`` series plus
    ``_sum`` and ``_count``.  Callback payloads (already-flat trackers)
    are exposed as untyped gauges; non-numeric values are skipped.
    """
    lines: list[str] = []
    seen: set[str] = set()
    for name in registry.names():
        metric = registry.metric(name)
        prom = _prom_name(name)
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom} {metric.value}")
            seen.add(name)
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {_prom_value(metric.value)}")
            seen.add(name)
        elif isinstance(metric, Histogram):
            summary = metric.summary()
            lines.append(f"# TYPE {prom} histogram")
            for bound, cumulative in metric.buckets():
                le = "+Inf" if math.isinf(bound) else repr(bound)
                lines.append(f'{prom}_bucket{{le="{le}"}} {cumulative}')
            lines.append(f"{prom}_sum {_prom_value(summary['sum'])}")
            lines.append(f"{prom}_count {int(summary['count'])}")
            seen.add(name)
    # Callback payloads: take them from one export() pass so the
    # exposition is a consistent snapshot.
    flat = registry.export()
    for name, value in flat.items():
        if any(name == known or name.startswith(known + ".")
               for known in seen):
            continue
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        lines.append(f"{_prom_name(name)} {_prom_value(value)}")
    return lines


def prometheus_snapshot_lines(flat: dict[str, object]) -> list[str]:
    """Render one already-flat snapshot (a timeline line's ``metrics``
    dict) as untyped exposition samples.

    Live registries go through :func:`prometheus_lines`, which knows
    metric types and bucket layouts; a recorded snapshot only has the
    flattened scalars, so ``repro metrics-dump --format prom`` emits
    them as bare samples, skipping non-numeric values.
    """
    lines: list[str] = []
    for name in sorted(flat):
        value = flat[name]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        lines.append(f"{_prom_name(name)} {_prom_value(value)}")
    return lines


def load_timeline(path: str | FilePath) -> list[dict[str, object]]:
    """Parse a :class:`SnapshotExporter` JSONL file, keeping only records
    whose ``metrics`` is an object (torn or foreign lines are skipped)."""
    snapshots: list[dict[str, object]] = []
    with FilePath(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # a torn final line from a killed process
            if isinstance(record, dict) \
                    and isinstance(record.get("metrics"), dict):
                snapshots.append(record)
    return snapshots


def summarise_timeline(
        snapshots: list[dict[str, object]]) -> dict[str, object]:
    """First/last deltas for every numeric series in a timeline.

    The ``repro metrics-dump`` default view: per metric, the first and
    last observed value plus the delta — which reads as "what moved
    over this run" without plotting anything.
    """
    if not snapshots:
        return {"snapshots": 0, "duration_s": 0.0, "series": {}}
    first, last = snapshots[0]["metrics"], snapshots[-1]["metrics"]
    series: dict[str, dict[str, float]] = {}
    for name in sorted(set(first) | set(last)):
        start, end = first.get(name), last.get(name)
        if not isinstance(start, (int, float)) \
                or not isinstance(end, (int, float)) \
                or isinstance(start, bool) or isinstance(end, bool):
            continue
        series[name] = {"first": start, "last": end,
                        "delta": end - start}
    return {
        "snapshots": len(snapshots),
        "duration_s": (float(snapshots[-1].get("elapsed_s", 0.0))
                       - float(snapshots[0].get("elapsed_s", 0.0))),
        "series": series,
    }
