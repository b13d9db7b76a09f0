"""The telemetry plane wired into serving: traces, canonical metric
names, kernel counters, and JSON-clean payloads end to end."""

import json
import re
from pathlib import Path

import pytest

from repro.obs.export import prometheus_snapshot_lines
from repro.serving import (
    ModelRegistry,
    RankingService,
    RankRequest,
    ServingConfig,
    ServingEngine,
)

ALL_PAIRS = [(s, t) for s in range(6) for t in range(6) if s != t]

OBSERVABILITY_DOC = Path(__file__).resolve().parents[2] / "docs" \
    / "observability.md"

#: Stages the synchronous facade stamps on every traced request.
SYNC_STAGES = {"admit", "candidates", "flush_wait", "score", "assemble"}


@pytest.fixture
def traced_service(tiny_network, registry, make_ranker,
                   candidates_config) -> RankingService:
    registry.publish(make_ranker(tiny_network, seed=1), activate=True)
    return RankingService(tiny_network, registry,
                          ServingConfig(candidates=candidates_config,
                                        trace_sample=1.0))


class TestServiceTracing:
    def test_default_config_keeps_tracing_off(self, service):
        service.rank(RankRequest(source=0, target=5))
        assert not service.tracer.enabled
        assert "trace" not in service.stats()

    def test_traced_request_carries_all_sync_stages(self, traced_service):
        traced_service.rank(RankRequest(source=0, target=5))
        trace = traced_service.stats()["trace"]
        assert trace["finished"] == 1
        assert set(trace["stages"]) == SYNC_STAGES
        for summary in trace["stages"].values():
            assert summary["count"] == 1

    def test_candidate_span_reports_cache_hit(self, traced_service):
        request = RankRequest(source=0, target=5)
        traced_service.rank(request)
        traced_service.rank(request)
        exemplars = traced_service.tracer.exemplars.snapshot()
        hits = []
        for record in exemplars:
            for span in record["spans"]:
                if span["name"] == "candidates":
                    hits.append(span["cache_hit"])
        assert sorted(hits) == [False, True]

    def test_exemplar_buffer_keeps_the_slowest_sixteen(self,
                                                        traced_service):
        for index, (s, t) in enumerate(ALL_PAIRS):
            traced_service.rank(RankRequest(source=s, target=t,
                                            request_id=index))
        trace = traced_service.stats()["trace"]
        assert trace["finished"] == len(ALL_PAIRS) > 16
        exemplars = trace["slow_requests"]
        assert len(exemplars) == traced_service.tracer.exemplars.capacity \
            == 16
        latencies = [record["latency_ms"] for record in exemplars]
        assert latencies == sorted(latencies, reverse=True)
        assert {"request", "served_by", "cache_hit", "spans"} \
            <= set(exemplars[0])

    def test_sampling_traces_a_fraction(self, tiny_network, registry,
                                        make_ranker, candidates_config):
        registry.publish(make_ranker(tiny_network, seed=1), activate=True)
        service = RankingService(
            tiny_network, registry,
            ServingConfig(candidates=candidates_config, trace_sample=0.5))
        for index, (s, t) in enumerate(ALL_PAIRS[:10]):
            service.rank(RankRequest(source=s, target=t, request_id=index))
        assert service.tracer.finished == 5

    def test_tracing_is_read_only(self, tmp_path, tiny_network, make_ranker,
                                  candidates_config):
        """Full tracing changes no response: element-wise equality with
        an untraced service over the same requests, cold and warm."""
        requests = [RankRequest(source=s, target=t, request_id=i)
                    for i, (s, t) in enumerate(ALL_PAIRS)]
        arms = []
        for sample in (0.0, 1.0):
            registry = ModelRegistry(tmp_path / f"trace-{sample}",
                                     tiny_network)
            registry.publish(make_ranker(tiny_network, seed=1),
                             activate=True)
            service = RankingService(
                tiny_network, registry,
                ServingConfig(candidates=candidates_config,
                              trace_sample=sample))
            arms.append([[service.rank(request) for request in requests]
                         for _ in range(2)])
            assert service.tracer.finished == (2 * len(requests)
                                               if sample else 0)
        for untraced, traced in zip(*arms):
            for mine, theirs in zip(traced, untraced):
                assert mine.served_by == theirs.served_by
                assert mine.model_version == theirs.model_version
                assert mine.candidate_cache_hit == theirs.candidate_cache_hit
                assert [(r.path.vertices, r.score) for r in mine.results] \
                    == [(r.path.vertices, r.score) for r in theirs.results]

    def test_config_rejects_bad_trace_knobs(self, candidates_config):
        with pytest.raises(Exception):
            ServingConfig(candidates=candidates_config, trace_sample=2.0)
        with pytest.raises(Exception):
            ServingConfig(candidates=candidates_config, trace_sample=-0.1)


class TestEngineTracing:
    def test_engine_adds_queue_wait_and_rebases_offsets(
            self, tiny_network, registry, make_ranker, candidates_config):
        registry.publish(make_ranker(tiny_network, seed=1), activate=True)
        service = RankingService(
            tiny_network, registry,
            ServingConfig(candidates=candidates_config, trace_sample=1.0))
        requests = [RankRequest(source=s, target=t, request_id=i)
                    for i, (s, t) in enumerate(ALL_PAIRS)]
        with ServingEngine(service, concurrency=4) as engine:
            engine.rank_batch(requests)
            stats = engine.stats()
        trace = stats["trace"]
        assert trace["finished"] == len(requests)
        assert "queue_wait" in trace["stages"]
        assert trace["stages"]["queue_wait"]["count"] == len(requests)
        # Offsets are rebased to submit time: every span of every
        # exemplar starts at or after the origin.
        for record in trace["slow_requests"]:
            for span in record["spans"]:
                assert span["offset_ms"] >= -1e-6


class TestCanonicalMetricNames:
    def test_service_registers_canonical_families(self, traced_service):
        traced_service.rank(RankRequest(source=0, target=5))
        exported = traced_service.metrics.export()
        assert exported["serving.requests"] == 1
        assert exported["serving.model_served"] == 1
        assert exported["serving.latency.count"] == 1
        assert exported["cache.candidate.misses"] == 1
        assert exported["scoring.batches_run"] >= 1
        assert exported["cache.score.misses"] >= 1
        assert exported["serving.stage.score.count"] == 1

    def test_kernel_counters_flow_after_serving(self, traced_service):
        # After a served request the candidate generator has built the
        # CSR kernel and the registry has compiled the fused scorer;
        # both kernels' counters surface under ``kernel.*``.
        traced_service.rank(RankRequest(source=0, target=5))
        after = traced_service.metrics.export()
        assert after["kernel.routing.yen_runs"] >= 1
        assert after["kernel.routing.heap_pops"] >= 1
        assert after["kernel.scoring.forwards"] >= 1
        assert after["kernel.scoring.paths_scored"] >= 1

    def test_kernel_views_never_build_kernels(self, tiny_network):
        # Telemetry readers must never build what serving hasn't: a
        # network no service has routed on yields no cached CSR, and an
        # uncompiled model yields no scoring profile.
        from repro.graph import RoadNetwork, csr_if_built
        from repro.nn import compiled_if_cached

        fresh = RoadNetwork(name="untouched")
        fresh.add_vertex(0, 0.0, 0.0)
        assert csr_if_built(fresh) is None

        class NeverCompiled:
            pass

        assert compiled_if_cached(NeverCompiled()) is None

    def test_score_cache_disabled_view(self, tiny_network, registry,
                                       make_ranker, candidates_config):
        registry.publish(make_ranker(tiny_network, seed=1), activate=True)
        service = RankingService(
            tiny_network, registry,
            ServingConfig(candidates=candidates_config,
                          score_cache_size=0))
        exported = service.metrics.export()
        assert exported["cache.score.disabled"] is True


class TestPayloadsAreJsonClean:
    """Satellite lint: every stats()/export() surface the serving and
    obs layers expose must survive ``json.dumps`` untouched."""

    def _assert_json_clean(self, payload):
        assert payload == json.loads(json.dumps(payload))

    def test_unsharded_service_surfaces(self, traced_service):
        traced_service.rank(RankRequest(source=0, target=5))
        self._assert_json_clean(traced_service.stats())
        self._assert_json_clean(traced_service.metrics.export())
        self._assert_json_clean(traced_service.tracer.as_dict())
        for line in prometheus_snapshot_lines(
                traced_service.metrics.export()):
            assert isinstance(line, str)

    def test_engine_surfaces(self, tiny_network, registry, make_ranker,
                             candidates_config):
        registry.publish(make_ranker(tiny_network, seed=1), activate=True)
        service = RankingService(
            tiny_network, registry,
            ServingConfig(candidates=candidates_config, trace_sample=1.0))
        requests = [RankRequest(source=s, target=t, request_id=i)
                    for i, (s, t) in enumerate(ALL_PAIRS[:8])]
        with ServingEngine(service, concurrency=2) as engine:
            engine.rank_batch(requests)
            self._assert_json_clean(engine.stats())


def _documented_families() -> list[str]:
    """Names and patterns of the doc's "Canonical families" table."""
    section = OBSERVABILITY_DOC.read_text().split("Canonical families", 1)[1]
    rows: list[str] = []
    for line in section.splitlines():
        if line.startswith("|"):
            rows.append(line)
        elif rows:
            break
    return [family for row in rows[2:]  # header and rule
            for family in re.findall(r"`([^`]+)`", row.split("|")[1])]


def _family_regex(family: str) -> re.Pattern:
    """``<name>`` is one label, ``.*`` any tail."""
    regex = re.sub(r"<\w+>", ".+", re.escape(family)).replace(r"\*", ".+")
    return re.compile(regex)


class TestMetricCatalogue:
    """docs/observability.md's family table is a contract with the
    registry: a service with every serving plane armed exports at
    least one key of each family, and nothing outside them."""

    #: Planes this service does not arm: the worker pool and the
    #: batch-analytics products.
    UNARMED = ("exec.", "analytics.")

    def test_table_matches_a_fully_armed_export(self, tiny_network, registry,
                                                make_ranker,
                                                candidates_config):
        registry.publish(make_ranker(tiny_network, seed=1),
                         version="v0001", activate=True)
        service = RankingService(tiny_network, registry, ServingConfig(
            candidates=candidates_config, trace_sample=1.0,
            candidate_cache_size=64, score_cache_size=256))
        requests = [RankRequest(source=s, target=t, request_id=i)
                    for i, (s, t) in enumerate(ALL_PAIRS)]
        with ServingEngine(service, concurrency=2) as engine:
            engine.rank_batch(requests + [RankRequest(source=99, target=5)])
            exported = service.metrics.export()
        families = {family: _family_regex(family)
                    for family in _documented_families()}
        assert "serving.requests" in families
        undocumented = [key for key in exported
                        if not any(regex.fullmatch(key)
                                   for regex in families.values())]
        assert not undocumented
        silent = [family for family, regex in families.items()
                  if not family.startswith(self.UNARMED)
                  and not any(regex.fullmatch(key) for key in exported)]
        assert not silent
