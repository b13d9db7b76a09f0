"""Unit tests for the JSONL snapshot exporter and exposition formats."""

import json
import math
import threading
import time

import pytest

from repro.obs.export import (
    SnapshotExporter,
    load_timeline,
    prometheus_snapshot_lines,
    summarise_timeline,
)
from repro.obs.metrics import MetricsRegistry


class _StaticSource:
    def __init__(self):
        self.calls = 0

    def export(self):
        self.calls += 1
        return {"serving.requests": self.calls}


# ----------------------------------------------------------------------
# SnapshotExporter
# ----------------------------------------------------------------------
class TestSnapshotExporter:
    def test_rejects_non_positive_interval(self, tmp_path):
        with pytest.raises(ValueError):
            SnapshotExporter(_StaticSource(), tmp_path / "t.jsonl",
                             interval_s=0.0)

    @pytest.mark.parametrize("interval_s", [
        math.nan, math.inf, threading.TIMEOUT_MAX * 2])
    def test_rejects_an_interval_it_cannot_sleep_on(self, tmp_path,
                                                    interval_s):
        """``Event.wait(nan)`` returns at once, so the thread used to
        spin; ``inf`` killed it with ``OverflowError``."""
        with pytest.raises(ValueError, match="interval_s"):
            SnapshotExporter(_StaticSource(), tmp_path / "t.jsonl",
                             interval_s=interval_s)
        assert not (tmp_path / "t.jsonl").exists()

    def test_truncates_previous_timeline(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("stale line\n")
        SnapshotExporter(_StaticSource(), path, interval_s=1.0)
        assert path.read_text() == ""

    def test_stop_always_writes_a_final_snapshot(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with SnapshotExporter(_StaticSource(), path, interval_s=60.0):
            pass  # far shorter than one interval
        snapshots = load_timeline(path)
        assert len(snapshots) == 1
        assert snapshots[0]["metrics"]["serving.requests"] == 1

    def test_periodic_snapshots_accumulate(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with SnapshotExporter(_StaticSource(), path, interval_s=0.02) \
                as exporter:
            deadline = time.time() + 2.0
            while exporter.snapshots_written < 3 and time.time() < deadline:
                time.sleep(0.01)
        snapshots = load_timeline(path)
        assert len(snapshots) >= 3
        elapsed = [snap["elapsed_s"] for snap in snapshots]
        assert elapsed == sorted(elapsed)

    def test_write_errors_are_swallowed(self, tmp_path):
        path = tmp_path / "t.jsonl"
        exporter = SnapshotExporter(_StaticSource(), path, interval_s=1.0)
        exporter.path = tmp_path / "missing" / "t.jsonl"  # unwritable
        exporter.snapshot()
        assert exporter.write_errors == 1
        assert exporter.snapshots_written == 0


# ----------------------------------------------------------------------
# load_timeline / summarise_timeline
# ----------------------------------------------------------------------
class TestTimeline:
    def test_load_skips_blank_and_torn_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        good = json.dumps({"ts": 1.0, "elapsed_s": 0.0,
                           "metrics": {"requests": 1}})
        path.write_text(good + "\n\n{\"torn\": \n" + good + "\n")
        assert len(load_timeline(path)) == 2

    def test_summary_reports_first_last_delta(self):
        snapshots = [
            {"ts": 1.0, "elapsed_s": 0.0,
             "metrics": {"requests": 10, "label": "a"}},
            {"ts": 2.0, "elapsed_s": 1.5,
             "metrics": {"requests": 30, "label": "b"}},
        ]
        summary = summarise_timeline(snapshots)
        assert summary["snapshots"] == 2
        assert summary["duration_s"] == pytest.approx(1.5)
        assert summary["series"]["requests"] == {
            "first": 10, "last": 30, "delta": 20}
        assert "label" not in summary["series"]  # non-numeric skipped

    def test_empty_timeline_summary(self):
        assert summarise_timeline([]) == {"snapshots": 0, "duration_s": 0.0,
                                          "series": {}}


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
class TestPrometheus:
    def test_registry_export_renders_every_instrument(self):
        """A live registry's export renders as samples: counters and
        gauges under their own name, histograms as their summary."""
        registry = MetricsRegistry()
        registry.counter("serving.requests").inc(3)
        registry.gauge("engine.depth").set(1.5)
        registry.histogram("serving.latency").observe(2.0)
        lines = prometheus_snapshot_lines(registry.export())
        assert "serving_requests 3" in lines
        assert "engine_depth 1.5" in lines
        assert "serving_latency_count 1" in lines
        assert not any(line.startswith("#") for line in lines)

    def test_callback_payloads_become_untyped_samples(self):
        registry = MetricsRegistry()
        registry.register_callback(
            "cache.candidate", lambda: {"hits": 4, "note": "warm"})
        text = "\n".join(prometheus_snapshot_lines(registry.export()))
        assert "cache_candidate_hits 4" in text
        assert "note" not in text  # non-numeric skipped

    def test_snapshot_lines_render_flat_dicts(self):
        lines = prometheus_snapshot_lines(
            {"serving.requests": 7, "shard.shard-00.requests.local": 2,
             "scoring.backend": "fused"})
        assert lines == ["serving_requests 7",
                         "shard_shard_00_requests_local 2"]
