"""Unit tests for per-request tracing, sampling, and exemplar retention."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import SlowRequestBuffer, Trace, Tracer


# ----------------------------------------------------------------------
# Trace / Span
# ----------------------------------------------------------------------
class TestTrace:
    def test_add_records_duration_in_ms(self):
        trace = Trace(started=10.0)
        trace.add("score", 10.0, 10.025)
        span = trace.spans[0]
        assert span.name == "score"
        assert span.duration_ms == pytest.approx(25.0)

    def test_span_context_manager_times_the_block(self):
        trace = Trace()
        with trace.span("candidates", cache_hit=True):
            pass
        span = trace.spans[0]
        assert span.name == "candidates"
        assert span.duration_ms >= 0.0
        assert span.attrs == {"cache_hit": True}

    def test_offsets_rebase_with_started(self):
        trace = Trace(started=100.0)
        trace.add("admit", 100.5, 100.6)
        before = trace.as_dict()["spans"][0]["offset_ms"]
        trace.started = 100.0 - 1.0  # engine rebases to submit time
        after = trace.as_dict()["spans"][0]["offset_ms"]
        assert before == pytest.approx(500.0)
        assert after == pytest.approx(1500.0)

    def test_as_dict_is_json_serialisable(self):
        trace = Trace(label="3->5", started=0.0)
        trace.add("admit", 0.0, 0.001, shard="shard-00")
        trace.latency_ms = 1.0
        json.dumps(trace.as_dict())


# ----------------------------------------------------------------------
# SlowRequestBuffer
# ----------------------------------------------------------------------
class TestSlowRequestBuffer:
    def test_keeps_top_k_by_latency_slowest_first(self):
        buffer = SlowRequestBuffer(capacity=3)
        for latency in (5.0, 1.0, 9.0, 3.0, 7.0):
            buffer.offer(latency, {"latency_ms": latency})
        kept = [record["latency_ms"] for record in buffer.snapshot()]
        assert kept == [9.0, 7.0, 5.0]

    def test_fast_request_rejected_once_full(self):
        buffer = SlowRequestBuffer(capacity=2)
        assert buffer.offer(5.0, {}) is True
        assert buffer.offer(6.0, {}) is True
        assert buffer.offer(1.0, {}) is False
        assert len(buffer) == 2

    def test_zero_capacity_keeps_nothing(self):
        buffer = SlowRequestBuffer(capacity=0)
        assert buffer.offer(100.0, {}) is False
        assert buffer.snapshot() == []

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            SlowRequestBuffer(capacity=-1)

    def test_clear_empties_the_buffer(self):
        buffer = SlowRequestBuffer(capacity=2)
        buffer.offer(1.0, {})
        buffer.clear()
        assert len(buffer) == 0


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_by_default(self):
        tracer = Tracer()
        assert not tracer.enabled
        assert tracer.maybe_start() is None

    def test_full_sampling_traces_every_request(self):
        tracer = Tracer(sample=1.0)
        assert tracer.enabled
        assert all(tracer.maybe_start() is not None for _ in range(10))

    def test_stride_sampling_rate(self):
        tracer = Tracer(sample=0.25)
        traced = sum(tracer.maybe_start() is not None for _ in range(100))
        assert traced == 25

    def test_rejects_out_of_range_sample(self):
        with pytest.raises(ValueError):
            Tracer(sample=1.5)
        with pytest.raises(ValueError):
            Tracer(sample=-0.1)

    def test_finish_feeds_stage_histograms(self):
        registry = MetricsRegistry()
        tracer = Tracer(sample=1.0, metrics=registry)
        trace = tracer.maybe_start()
        trace.add("score", 0.0, 0.004)
        tracer.finish(trace, latency_ms=4.0)
        assert tracer.finished == 1
        summary = tracer.stage_summary()
        assert summary["score"]["count"] == 1
        assert summary["score"]["max"] == pytest.approx(4.0)
        assert registry.export()["serving.stage.score.count"] == 1

    def test_finish_retains_exemplars_with_info(self):
        tracer = Tracer(sample=1.0, max_exemplars=2)
        for latency in (3.0, 9.0, 1.0):
            trace = tracer.maybe_start()
            trace.add("score", 0.0, latency / 1000.0)
            tracer.finish(trace, latency_ms=latency, request="0->5")
        records = tracer.exemplars.snapshot()
        assert [r["latency_ms"] for r in records] == [9.0, 3.0]
        assert records[0]["request"] == "0->5"
        assert records[0]["spans"][0]["name"] == "score"

    def test_as_dict_is_json_serialisable(self):
        tracer = Tracer(sample=1.0)
        trace = tracer.maybe_start()
        trace.add("admit", 0.0, 0.001)
        tracer.finish(trace, latency_ms=1.0, shard=None)
        payload = tracer.as_dict()
        json.dumps(payload)
        assert payload["sample"] == 1.0
        assert payload["finished"] == 1
