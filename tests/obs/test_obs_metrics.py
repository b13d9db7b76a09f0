"""Unit tests for the metrics primitives and the central registry."""

import json
import threading

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    flatten_metrics,
)


# ----------------------------------------------------------------------
# Counter / Gauge
# ----------------------------------------------------------------------
class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("requests")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("requests").inc(-1)

    def test_rejects_malformed_name(self):
        for bad in ("", ".", "a..b", "a b", "a/b", ".leading", "trailing."):
            with pytest.raises(ValueError):
                Counter(bad)

    def test_accepts_dotted_names(self):
        for good in ("requests", "serving.latency", "shard.shard-00.requests",
                     "cache.candidate.hits", "a_b.c-d.e0"):
            assert Counter(good).name == good

    def test_concurrent_increments_do_not_lose_updates(self):
        counter = Counter("spins")
        threads = [threading.Thread(
            target=lambda: [counter.inc() for _ in range(1000)])
            for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge("depth")
        gauge.set(4.0)
        assert gauge.value == 4.0
        gauge.add(-1.5)
        assert gauge.value == 2.5


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------
class TestHistogram:
    def test_empty_summary_is_all_zero(self):
        summary = Histogram("latency").summary()
        assert summary == {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0,
                           "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_summary_tracks_observations(self):
        histogram = Histogram("latency")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["sum"] == pytest.approx(10.0)
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0

    def test_quantiles_ordered_and_clamped_to_observed_range(self):
        histogram = Histogram("latency")
        for value in (0.5, 1.5, 2.5, 10.0, 100.0, 250.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["min"] <= summary["p50"] <= summary["p95"] \
            <= summary["p99"] <= summary["max"]

    def test_single_observation_quantiles_are_exact(self):
        histogram = Histogram("latency")
        histogram.observe(7.25)
        summary = histogram.summary()
        assert summary["p50"] == 7.25
        assert summary["p99"] == 7.25

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="quantile"):
            Histogram("latency").quantile(1.5)

    def test_extreme_values_fall_into_edge_buckets(self):
        histogram = Histogram("latency")
        histogram.observe(0.0)       # below the smallest bound
        histogram.observe(1e12)      # above the largest finite bound
        assert histogram.count == 2
        summary = histogram.summary()
        assert summary["min"] == 0.0
        assert summary["max"] == 1e12


# ----------------------------------------------------------------------
# flatten_metrics
# ----------------------------------------------------------------------
class TestFlattenMetrics:
    def test_nested_dicts_become_dotted_keys(self):
        out: dict[str, object] = {}
        flatten_metrics("shard", {"shard-00": {"requests": 3}}, out)
        assert out == {"shard.shard-00.requests": 3}

    def test_lists_are_indexed(self):
        out: dict[str, object] = {}
        flatten_metrics("sizes", [5, 7], out)
        assert out == {"sizes.0": 5, "sizes.1": 7}

    def test_non_scalars_are_stringified(self):
        out: dict[str, object] = {}
        flatten_metrics("odd", {"value": object()}, out)
        assert isinstance(out["odd.value"], str)


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_get_or_create_returns_the_same_metric(self):
        registry = MetricsRegistry()
        assert registry.counter("requests") is registry.counter("requests")
        assert registry.histogram("latency") is registry.histogram("latency")

    def test_malformed_name_is_never_stored(self):
        registry = MetricsRegistry()
        for _ in range(2):
            with pytest.raises(ValueError, match="invalid metric name"):
                registry.counter("a b")
        assert registry.export() == {}

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("requests")
        with pytest.raises(ValueError):
            registry.gauge("requests")

    def test_callback_payloads_flatten_under_prefix(self):
        registry = MetricsRegistry()
        registry.register_callback(
            "cache.candidate", lambda: {"hits": 3, "misses": 1})
        exported = registry.export()
        assert exported["cache.candidate.hits"] == 3
        assert exported["cache.candidate.misses"] == 1

    def test_callback_reregistration_replaces(self):
        registry = MetricsRegistry()
        registry.register_callback("x", lambda: {"v": 1})
        registry.register_callback("x", lambda: {"v": 2})
        assert registry.export()["x.v"] == 2

    def test_unregistered_callback_disappears(self):
        registry = MetricsRegistry()
        registry.register_callback("x", lambda: {"v": 1})
        registry.unregister_callback("x")
        assert "x.v" not in registry.export()

    def test_failing_callback_is_isolated(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc()

        def boom():
            raise RuntimeError("tracker exploded")

        registry.register_callback("broken", boom)
        exported = registry.export()
        assert exported["requests"] == 1
        assert "tracker exploded" in exported["broken.error"]

    def test_export_is_flat_sorted_and_json_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("serving.requests").inc(2)
        registry.gauge("engine.depth").set(1.5)
        registry.histogram("serving.latency").observe(3.0)
        registry.register_callback("split", lambda: {"v0001": {"count": 1}})
        exported = registry.export()
        assert list(exported) == sorted(exported)
        json.dumps(exported)
        assert exported["serving.requests"] == 2
        assert exported["serving.latency.count"] == 1
        assert "serving.latency.p95" in exported
        assert exported["split.v0001.count"] == 1

    def test_histograms_filtered_by_prefix(self):
        registry = MetricsRegistry()
        registry.histogram("serving.stage.admit")
        registry.histogram("serving.latency")
        registry.counter("serving.stage.bogus.count")
        stages = registry.histograms("serving.stage.")
        assert set(stages) == {"serving.stage.admit"}

