"""The three serving workloads: serve_hot, serve_rescore, serve_cold.

They share one network and one random-weight PR-A2 model (weight
quality does not change serving cost) and differ in which cache is
warm, hence in which layer does the work.
"""

from __future__ import annotations

import itertools
import time
from collections import deque

import numpy as np

from harness import Check, Round, Workload, median, ratio, region
from loadgen import (closed_loop, digest, grade, od_stream, open_loop, take,
                     zipf_indices)
from repro.core.batching import encode_path_buckets
from repro.core.ranker import (PathRankRanker, RankerConfig,
                               generate_candidates, rank_paths)
from repro.core.variants import build_pathrank
from repro.graph import shortest_path_cost
from repro.graph.csr import use_routing_backend
from repro.graph.diversified import diversified_top_k
from repro.nn.fused import compiled_for
from repro.ranking.training_data import Strategy, TrainingDataConfig
from repro.serving import (ModelRegistry, RankingService, RankRequest,
                           ServingConfig, ServingEngine)

SCORE_TOLERANCE = 1e-6
STREAM = 1 << 18          # length of the pre-drawn Zipf / arrival streams
ROUTING_COUNTERS = ("heap_pops", "settled", "yen_spur_searches",
                    "alt_pruned")


def candidates_with_effort(network, source, target, config):
    """Candidate paths plus how many Yen paths were examined for them."""
    if config.strategy is Strategy.TKDI:
        paths = generate_candidates(network, source, target, config)
        return paths, len(paths)
    result = diversified_top_k(network, source, target, config.k,
                               threshold=config.diversity_threshold,
                               examine_limit=config.examine_limit)
    return list(result.paths), result.examined


def prefix_shared_share(candidate_sets) -> float:
    """GRU steps whose whole prefix an earlier candidate of the same
    request already covers, over all steps: the ceiling of what
    prefix-shared evaluation could skip."""
    shared = steps = 0
    for paths in candidate_sets:
        seen: set[tuple[int, ...]] = set()
        for path in paths:
            vertices = path.vertices
            for end in range(1, len(vertices) + 1):
                prefix = vertices[:end]
                if prefix in seen:
                    shared += 1
                else:
                    seen.add(prefix)
            steps += len(vertices)
    return ratio(shared, steps)


def forward_flops(model, steps: int, batch: int) -> float:
    """FLOPs of one padded BiGRU forward, computed from tensor sizes
    (2 per multiply-add; gate nonlinearities not counted)."""
    m, h = model.embedding_dim, model.hidden_size
    directions = 2 if model.bidirectional else 1
    gru = directions * steps * batch * 2 * (3 * h * m + 3 * h * h)
    fc = model.fc1.out_features
    head = batch * 2 * (model.summary_size * fc + fc)
    return float(gru + head)


class _Serve(Workload):
    """Common set-up, checks and layer replay of the serve workloads."""

    engine_front = True

    # -- set-up ----------------------------------------------------------
    def build(self) -> None:
        spans = self.spans
        self.build_graph(lambda: region(self.shared["serve_network"]))
        c = self.consts
        self.candidates = TrainingDataConfig(
            strategy=Strategy.from_name(c["strategy"]), k=c["k"],
            diversity_threshold=c["diversity_threshold"],
            examine_limit=c["examine_limit"])
        m = self.shared["model"]
        self.ranker = PathRankRanker(self.network, RankerConfig(
            embedding_dim=m["embedding_dim"], hidden_size=m["hidden_size"],
            fc_hidden=m["fc_hidden"], training_data=self.candidates))
        self.ranker.model = self.random_model()
        self.ranker.model.eval()
        # A traced run serves its untraced halves from a second service
        # so that the in-program tracing cost shows as a difference.
        self.services = {}
        self.engines = {}
        for traced in ((False, True) if self.trace else (False,)):
            registry = ModelRegistry(self.workdir / f"registry-{int(traced)}",
                                     self.network)
            registry.publish(self.ranker, version="bench")
            service = RankingService(self.network, registry, ServingConfig(
                candidates=self.candidates,
                score_cache_size=c["score_cache_size"],
                trace_sample=1.0 if traced else 0.0))
            with spans.span("serving.registry.activate"):
                service.activate("bench")
            self.services[traced] = service
        if self.trace:
            fresh = self.random_model()
            with spans.span("nn.fused.compile"):
                compiled_for(fresh)

    def random_model(self):
        m = self.shared["model"]
        return build_pathrank(
            "PR-A2", num_vertices=self.network.num_vertices,
            embedding_dim=m["embedding_dim"], hidden_size=m["hidden_size"],
            fc_hidden=m["fc_hidden"], rng=m["seed"])

    def make_inputs(self) -> None:
        c = self.consts
        self.stream = od_stream(self.network, self.rng, min_km=c["min_km"],
                                hops=tuple(c["hops"]))
        self.cursor = 0
        self.effort = [0, 0]        # candidates kept, Yen paths examined
        self.asked: list = []       # (request, response) kept for the oracle
        if "hotspots" in c:
            self.hotspots = take(self.stream, c["hotspots"])
            self.requests = [RankRequest(s, t) for s, t in self.hotspots]
            self.zipf = zipf_indices(self.rng, c["hotspots"],
                                     c["zipf_exponent"], STREAM)
            self.gaps = self.rng.exponential(1.0, STREAM)
            self.pinned_ops = digest(
                self.hotspots + self.zipf[:4096]
                + [round(g, 12) for g in self.gaps[:4096].tolist()])
        else:
            head = take(self.stream, 16)
            self.pinned_ops = digest(head)
            self.stream = itertools.chain(head, self.stream)
            self.pending: deque = deque()   # drawn, not yet asked
        self.routing = dict.fromkeys(ROUTING_COUNTERS, 0)
        self.routed = 0
        self.stage_base = None      # set by the first traced round

    def warm(self) -> None:
        if not self.engine_front:
            return
        spans = self.spans
        if self.trace:
            # The traced run enumerates the hotspot candidates itself,
            # under spans, and hands them to both services' caches.
            for op, (source, target) in enumerate(self.hotspots):
                with spans.span("graph.candidates", op=op):
                    paths, examined = candidates_with_effort(
                        self.network, source, target, self.candidates)
                self.effort[0] += len(paths)
                self.effort[1] += examined
                for service in self.services.values():
                    service.candidate_cache.store(source, target,
                                                  self.candidates, paths)
        for traced, service in self.services.items():
            with spans.span("serving.service.warm_up"):
                self.engines[traced] = ServingEngine(service,
                                                     warmup=self.requests)

    def teardown(self) -> None:
        for engine in getattr(self, "engines", {}).values():
            engine.close(timeout=10.0)
        for service in getattr(self, "services", {}).values():
            service.close()

    # -- routing effort --------------------------------------------------
    def routed_since(self, before: dict[str, int], queries: int) -> None:
        """Adds the routing kernel's exact effort counts for a round."""
        after = self.kernel.profile_counters()
        for key in ROUTING_COUNTERS:
            self.routing[key] += after[key] - before[key]
        self.routed += queries

    # -- the oracle --------------------------------------------------------
    def oracle_sample(self) -> list:
        """(request, response) pairs the oracle recomputes."""
        raise NotImplementedError

    def verify(self) -> Check:
        check = Check()
        sample = self.oracle_sample()
        model = self.ranker.model
        for position, (request, response) in enumerate(sample):
            label = f"{request.source}->{request.target}"
            if response is None or response.served_by != "model" \
                    or not response.results:
                check.expect(False, f"oracle: {label} has no model response")
                continue
            paths = [entry.path for entry in response.results]
            scores = [entry.score for entry in response.results]
            if self.inject == "oracle_mismatch" and position == 0:
                scores = [score + 1e-3 for score in scores]
            reference = model.score_paths(paths, backend="module")
            worst = float(np.max(np.abs(reference - np.asarray(scores))))
            check.expect(worst <= SCORE_TOLERANCE,
                         f"oracle: {label} score differs by {worst:.3g}")
            cheapest = min(path.length for path in paths)
            exact = shortest_path_cost(self.network, request.source,
                                       request.target, backend="dict")
            check.expect(
                all(p.source == request.source and p.target == request.target
                    for p in paths)
                and abs(cheapest - exact) <= 1e-6 * max(exact, 1.0),
                f"oracle: {label} lacks the shortest path")
            if position >= self.consts["oracle_full"]:
                continue
            # Full recomputation on the reference lanes: dict routing and
            # the autograd module, same paths in the same order.
            with use_routing_backend("dict"):
                expected = generate_candidates(
                    self.network, request.source, request.target,
                    self.candidates)
            ranked = rank_paths(expected,
                                model.score_paths(expected, backend="module"))
            same = [p.vertices for p, _ in ranked] \
                == [p.vertices for p in paths]
            close = same and all(
                abs(a - b) <= SCORE_TOLERANCE
                for (_, a), b in zip(ranked, scores))
            check.expect(close, f"oracle: {label} differs from the "
                                f"dict/module recomputation")
        return check

    # -- layer replay --------------------------------------------------------
    def replay_stages(self, requests, group: int) -> dict[str, float]:
        """admit -> prepare -> score_states -> assemble, one stage at a
        time on the untraced service, in groups of the observed flush
        size; nothing is recorded in the service's own metrics."""
        service, spans = self.services[False], self.spans
        clock = time.perf_counter
        admit = prepare = assemble = rank = 0.0
        flushes: list[float] = []
        for start in range(0, len(requests), group):
            chunk = requests[start:start + group]
            with spans.span("serving.replay", op=start):
                began = clock()
                with spans.span("serving.service.admit"):
                    states = [service.admit(request) for request in chunk]
                admitted = clock()
                with spans.span("serving.service.prepare"):
                    for state in states:
                        service.prepare(state)
                prepared = clock()
                with spans.span("serving.service.score_states"):
                    service.score_states(states)
                scored = clock()
                with spans.span("serving.service.assemble"):
                    for state in states:
                        service.assemble(state, record=False)
                done = clock()
            for state in states:
                t0 = clock()
                rank_paths(state.paths, state.scores)
                rank += clock() - t0
            admit += admitted - began
            prepare += prepared - admitted
            flushes.append(scored - prepared)
            assemble += done - scored
        n = len(requests)
        return {
            "serving.service.admit_us": admit / n * 1e6,
            "serving.service.prepare_hit_us": prepare / n * 1e6,
            "serving.service.score_ms_per_flush": median(flushes) * 1e3,
            "serving.service.assemble_us": assemble / n * 1e6,
            "core.ranker.rank_paths_us": rank / n * 1e6,
            "_stage_cpu_ms_per_op":
                (admit + prepare + sum(flushes) + assemble) / n * 1e3,
        }

    def replay_scoring(self, batches) -> dict[str, float]:
        """Encode and fused forward on flush-shaped path batches, through
        the same two public calls ``PathRank.score_paths`` makes."""
        model, spans = self.ranker.model, self.spans
        kernel = compiled_for(model)
        clock = time.perf_counter
        before = kernel.profile_counters()
        encode = forward = flops = 0.0
        cells = padded = paths_total = 0
        for op, paths in enumerate(batches):
            with spans.span("scoring.replay", op=op):
                buckets = encode_path_buckets(paths)
                while True:
                    t0 = clock()
                    with spans.span("core.batching.encode"):
                        bucket = next(buckets, None)
                    t1 = clock()
                    if bucket is None:
                        break
                    _, vertex_ids, mask = bucket
                    with spans.span("nn.fused.forward"):
                        kernel.forward(vertex_ids, mask)
                    forward += clock() - t1
                    encode += t1 - t0
                    cells += mask.size
                    padded += mask.size - int(mask.sum())
                    flops += forward_flops(model, *mask.shape)
            paths_total += len(paths)
        after = kernel.profile_counters()
        return {
            "core.batching.encode_us_per_path": ratio(encode, paths_total) * 1e6,
            "core.batching.padding_share": ratio(padded, cells),
            "nn.fused.score_us_per_path": ratio(forward, paths_total) * 1e6,
            "nn.fused.steps_per_path": ratio(
                after["steps_total"] - before["steps_total"],
                after["paths_scored"] - before["paths_scored"]),
            "nn.fused.gflops_achieved": ratio(flops, forward) / 1e9,
            "_scoring_s": encode + forward,
        }

    def serving_layers(self, rounds: list[Round]) -> dict[str, float]:
        """What the traced service and the spans say about the rounds."""
        spans = self.spans
        service = self.services[True]
        stats = (self.engines[True] if self.engine_front else service).stats()
        stages = stats["trace"]["stages"]
        outcomes: dict[str, int] = {}
        for r in rounds:
            for key, value in r.outcomes.items():
                outcomes[key] = outcomes.get(key, 0) + value
        delta, queries = self.routing, max(1, self.routed)
        layers = self.graph_layers() | {
            "serving.registry.activate_s":
                median(spans.durations("serving.registry.activate")),
            "serving.service.warm_up_s":
                median(spans.durations("serving.service.warm_up")),
            "nn.fused.compile_s": spans.total("nn.fused.compile"),
            "graph.candidates.ms_p50":
                median(spans.durations("graph.candidates")) * 1e3,
            "graph.candidates.busy_share": ratio(
                stages.get("candidates", {}).get("sum", 0.0)
                - self.stage_base.get("candidates", 0.0),
                self.traced_latency_ms),
            "graph.diversified.kept_over_examined": ratio(*self.effort),
            "graph.csr.heap_pops_per_query": delta["heap_pops"] / queries,
            "graph.csr.settled_per_query": delta["settled"] / queries,
            "graph.csr.yen_spur_searches_per_query":
                delta["yen_spur_searches"] / queries,
            "graph.csr.alt_pruned_per_query": delta["alt_pruned"] / queries,
            "serving.engine.queue_wait_ms_p50":
                stages.get("queue_wait", {}).get("p50", 0.0),
            "serving.engine.flush_wait_ms_p50":
                stages.get("flush_wait", {}).get("p50", 0.0),
            "serving.engine.score_stage_ms_p50":
                stages.get("score", {}).get("p50", 0.0),
            "serving.degraded": float(outcomes.get("degraded", 0)),
            "serving.refused": float(outcomes.get("refused", 0)),
            "serving.hung": float(outcomes.get("hung", 0)),
        }
        for cache in ("candidate_cache", "score_cache"):
            now, base = stats[cache], self.cache_base[cache]
            hits = now.get("hits", 0) - base.get("hits", 0)
            misses = now.get("misses", 0) - base.get("misses", 0)
            layers[f"serving.cache.{cache[:-6]}_hit_rate"] = ratio(
                hits, hits + misses)
        if self.engine_front:
            occupancy = stats["engine"]["occupancy"]
            layers.update({
                "serving.engine.requests_per_flush":
                    occupancy["mean_requests_per_flush"],
                "serving.engine.paths_per_flush":
                    occupancy["mean_paths_per_flush"],
                "serving.engine.flushes": float(occupancy["flushes"]),
            })
        return layers

    def lane(self, traced: bool) -> bool:
        """Key of the service that serves this (half-)round.  The first
        traced one baselines the traced service's cumulative counters,
        so that the layer metrics cover the timed rounds only."""
        traced = traced and self.trace
        if not traced or self.stage_base is not None:
            return traced
        stats = self.services[True].stats()
        self.cache_base = {"candidate_cache": dict(stats["candidate_cache"]),
                           "score_cache": dict(stats["score_cache"])}
        self.stage_base = {
            name: summary["sum"]
            for name, summary in stats["trace"]["stages"].items()}
        self.traced_latency_ms = 0.0
        return True


class _EngineServe(_Serve):
    """Open loop at a frozen rate, then closed loop at a frozen window."""

    def take_requests(self, count: int) -> list:
        picks = [self.zipf[(self.cursor + i) % STREAM] for i in range(count)]
        self.cursor += count
        return [self.requests[i] for i in picks]

    def round(self, seconds: float, traced: bool) -> Round:
        c = self.consts
        engine = self.engines[self.lane(traced)]
        open_s = seconds / 2.0
        offsets = np.cumsum(
            np.take(self.gaps, np.arange(self.cursor,
                                         self.cursor + int(c["rate"] * open_s
                                                           * 1.5) + 16),
                    mode="wrap")) / c["rate"]
        offsets = offsets[offsets < open_s].tolist()
        open_requests = self.take_requests(len(offsets))
        if self.inject == "unknown_vertex":
            open_requests[0] = RankRequest(self.network.num_vertices + 5,
                                           open_requests[0].target)
        cycle = self.take_requests(4096)
        effort_before = self.kernel.profile_counters()
        opened = open_loop(engine, open_requests, offsets, c["limit_ms"],
                           c["hang_s"])
        # CPU is charged over the closed loop only: there the generator
        # blocks on a ticket, while keeping the open loop's schedule it
        # spins, and that spinning is the benchmark's cost, not the
        # program's (at 4 000 requests a second it was half the total).
        cpu_began = time.process_time()
        closed = closed_loop(engine, cycle, c["window"], seconds - open_s,
                             c["hang_s"])
        cpu_s = time.process_time() - cpu_began
        attempted = opened.attempted + closed.attempted
        self.routed_since(effort_before, attempted)
        outcomes = dict(opened.outcomes)
        for kind, count in closed.outcomes.items():
            outcomes[kind] = outcomes.get(kind, 0) + count
        if traced:
            for start, end in opened.spans + closed.spans:
                self.spans.add("engine.request", start, end)
            self.traced_latency_ms += opened.service_ms + closed.service_ms
        return Round(
            attempted=attempted, ok=opened.ok + closed.ok,
            throughput=ratio(closed.ok, closed.wall_s),
            latencies_ms=opened.latencies_ms, lat_attempted=opened.attempted,
            within=opened.within, cpu_s=cpu_s, cpu_ops=closed.attempted,
            lateness_ms=opened.lateness_ms, outcomes=outcomes,
            notes=[f"{count} responses {kind}"
                   for kind, count in outcomes.items()])

    def oracle_sample(self) -> list:
        count = min(self.consts["oracle_sample"], len(self.requests))
        picks = self.rng.choice(len(self.requests), size=count,
                                replace=False).tolist()
        sample = [self.requests[i] for i in picks]
        return list(zip(sample, self.engines[False].rank_batch(
            sample, timeout=self.consts["hang_s"])))

    def layers(self, rounds: list[Round]) -> dict[str, float]:
        layers = self.serving_layers(rounds)
        sample = self.take_requests(self.consts["replay_requests"])
        group = max(1, round(layers["serving.engine.requests_per_flush"]))
        layers.update(self.replay_stages(sample, group))
        candidate_sets = [
            self.services[False].candidate_cache.lookup(
                r.source, r.target, self.candidates) for r in sample]
        batches = [
            [p for paths in candidate_sets[i:i + group] for p in paths]
            for i in range(0, len(candidate_sets), group)]
        layers.update(self.replay_scoring(batches))
        layers["nn.fused.prefix_shared_share"] = prefix_shared_share(
            candidate_sets)
        # Stage time per replayed request over measured CPU per request.
        cpu_ms = median([r.cpu_ms_per_op for r in rounds])
        layers["bench.layer_coverage_share"] = ratio(
            layers["_stage_cpu_ms_per_op"], cpu_ms)
        return layers


class ServeHot(_EngineServe):
    name = "serve_hot"


class ServeRescore(_EngineServe):
    name = "serve_rescore"


class ServeCold(_Serve):
    """Sync facade, one closed-loop client, every OD asked once."""

    name = "serve_cold"
    engine_front = False
    pace = 24.0         # requests a second assumed before the first round

    def round(self, seconds: float, traced: bool) -> Round:
        c = self.consts
        service = self.services[self.lane(traced)]
        clock = time.perf_counter
        latencies: list[float] = []
        outcomes: dict[str, int] = {}
        ok = within = 0
        service_ms = 0.0
        # Drawn before the clock starts (the hop band makes a draw cost
        # several shortest-path searches): half again as many as the
        # last round of this length got through; what a round leaves
        # over, the next one asks.
        pending = self.pending
        need = int(self.pace * seconds * 1.5) + 4 - len(pending)
        pending.extend(RankRequest(s, t)
                       for s, t in take(self.stream, max(0, need)))
        if self.inject == "unknown_vertex":
            pending[0] = RankRequest(self.network.num_vertices + 5,
                                     pending[0].target)
        effort_before = self.kernel.profile_counters()
        cpu_began = time.process_time()
        began = clock()
        stop = began + seconds
        while pending:
            request = pending.popleft()
            t0 = clock()
            response = service.rank(request)
            t1 = clock()
            latency = (t1 - t0) * 1e3
            latencies.append(latency)
            good = grade(response, outcomes)
            ok += good
            within += good and latency <= c["limit_ms"]
            service_ms += response.latency_ms
            self.asked.append((request, response))
            if traced:
                self.spans.add("service.rank", t0, t1, op=len(self.asked))
            if t1 >= stop:
                break
        wall = clock() - began
        cpu_s = time.process_time() - cpu_began
        self.pace = len(latencies) / wall
        self.routed_since(effort_before, len(latencies))
        if traced:
            self.traced_latency_ms += service_ms
        return Round(
            attempted=len(latencies), ok=ok, throughput=ratio(ok, wall),
            latencies_ms=latencies, lat_attempted=len(latencies),
            within=within, cpu_s=cpu_s, outcomes=outcomes,
            notes=[f"{count} responses {kind}"
                   for kind, count in outcomes.items()])

    def oracle_sample(self) -> list:
        served = [pair for pair in self.asked
                  if pair[0].source < self.network.num_vertices]
        count = min(self.consts["oracle_sample"], len(served))
        picks = self.rng.choice(len(served), size=count, replace=False)
        return [served[i] for i in picks.tolist()]

    def layers(self, rounds: list[Round]) -> dict[str, float]:
        layers = self.serving_layers(rounds)
        spans, model = self.spans, self.ranker.model
        service = self.services[False]
        clock = time.perf_counter
        layered = whole = 0.0
        candidate_sets, hit_requests = [], []
        for op in range(self.consts["replay_requests"]):
            source, target = next(self.stream)
            with spans.span("serve_cold.replay", op=op):
                t0 = clock()
                with spans.span("graph.candidates", op=op):
                    paths, examined = candidates_with_effort(
                        self.network, source, target, self.candidates)
                self.effort[0] += len(paths)
                self.effort[1] += examined
                with spans.span("core.model.score_paths"):
                    scores = model.score_paths(paths)
                with spans.span("core.ranker.rank_paths"):
                    rank_paths(paths, scores)
                layered += clock() - t0
            candidate_sets.append(paths)
            # The same OD through the real front door, cold in its cache.
            request = RankRequest(source, target)
            t0 = clock()
            service.rank(request)
            whole += clock() - t0
            hit_requests.append(request)
        layers["graph.candidates.ms_p50"] = median(
            spans.durations("graph.candidates")) * 1e3
        layers["graph.diversified.kept_over_examined"] = ratio(*self.effort)
        layers.update(self.replay_stages(hit_requests, 1))
        layers.update(self.replay_scoring(candidate_sets))
        layers["nn.fused.prefix_shared_share"] = prefix_shared_share(
            candidate_sets)
        layers["bench.layer_coverage_share"] = ratio(layered, whole)
        return layers
