"""batch_routes: the routing kernel used the other way — full sweeps
and long ALT point-to-point searches on a >= 50k-vertex grid, beside
serve_cold's many short banned-spur searches on a small region."""

from __future__ import annotations

import itertools
import time

import numpy as np

from harness import Check, Round, Workload, median, ratio
from loadgen import digest
from repro.analytics import od_cost_matrix, route_frequencies, service_area
from repro.graph import shortest_path, shortest_path_cost
from repro.graph.builders import grid_network

COUNTERS = ("heap_pops", "settled", "alt_pruned")


class BatchRoutes(Workload):
    name = "batch_routes"

    def build(self) -> None:
        c = self.consts
        self.build_graph(lambda: grid_network(c["grid"], c["grid"],
                                              seed=c["grid_seed"]))

    def make_inputs(self) -> None:
        self.jobs_made = 0
        self.last = None            # the last job's inputs and products
        self.p2p_effort = dict.fromkeys(COUNTERS, 0)
        self.p2p_queries = 0
        self.pinned_ops = digest(self.job_inputs(
            np.random.default_rng([self.seed, 0])).values())

    def job_inputs(self, rng: np.random.Generator) -> dict[str, list]:
        c, n = self.consts, self.network.num_vertices

        def draw(count: int) -> list[int]:
            return rng.integers(0, n, count).tolist()

        def pairs(sources: list[int], count: int) -> list[tuple[int, int]]:
            """``count`` (source, target) pairs with distinct endpoints."""
            return [(source, target if target != source else (target + 1) % n)
                    for source, target in zip(
                        itertools.cycle(sources), draw(count))]

        return {
            "p2p": pairs(draw(c["p2p"]), c["p2p"]),
            "od_origins": draw(c["od_origins"]),
            "od_destinations": draw(c["od_destinations"]),
            "sa_sources": draw(c["sa_sources"]),
            "rf_pairs": pairs(draw(c["rf_origins"]), c["rf_pairs"]),
        }

    def job(self) -> tuple[float, bool]:
        """One job: p2p searches, an OD matrix, service areas, route
        frequencies.  Returns its wall time and whether every product
        came back well-formed."""
        c, spans, net = self.consts, self.spans, self.network
        self.jobs_made += 1
        inputs = self.job_inputs(
            np.random.default_rng([self.seed, self.jobs_made]))
        clock = time.perf_counter
        before = self.kernel.profile_counters()
        began = clock()
        with spans.span("batch.job", op=self.jobs_made):
            paths = []
            for source, target in inputs["p2p"]:
                with spans.span("graph.csr.p2p"):
                    paths.append(shortest_path(net, source, target))
            p2p_done = self.kernel.profile_counters()
            with spans.span("analytics.od_matrix"):
                matrix = od_cost_matrix(net, inputs["od_origins"],
                                        inputs["od_destinations"])
            with spans.span("analytics.service_area"):
                areas = service_area(net, inputs["sa_sources"],
                                     c["sa_budgets"])
            with spans.span("analytics.route_frequencies"):
                loads = route_frequencies(net, inputs["rf_pairs"])
        wall = clock() - began
        for key in COUNTERS:
            self.p2p_effort[key] += p2p_done[key] - before[key]
        self.p2p_queries += len(paths)
        self.last = (inputs, paths, matrix, areas, loads)
        good = (all(p.source == s and p.target == t
                    for p, (s, t) in zip(paths, inputs["p2p"]))
                and matrix.costs.shape == (len(inputs["od_origins"]),
                                           len(inputs["od_destinations"]))
                and len(areas) == len(inputs["sa_sources"])
                * len(c["sa_budgets"])
                and loads.num_pairs == len(inputs["rf_pairs"]))
        return wall, good

    def round(self, seconds: float, traced: bool) -> Round:
        clock = time.perf_counter
        latencies, ok = [], 0
        cpu_began = time.process_time()
        began = clock()
        stop = began + seconds
        while True:
            wall, good = self.job()
            latencies.append(wall * 1e3)
            ok += int(good)
            if clock() + wall / 2.0 >= stop:    # less than half a job left
                break
        elapsed = clock() - began
        limit = self.consts["limit_ms"]
        return Round(
            attempted=len(latencies), ok=ok, throughput=ratio(ok, elapsed),
            latencies_ms=latencies, lat_attempted=len(latencies),
            within=sum(1 for v in latencies if v <= limit)
            if ok == len(latencies) else 0,
            cpu_s=time.process_time() - cpu_began,
            notes=[] if ok == len(latencies) else ["malformed batch product"])

    def verify(self) -> Check:
        """The last job's products against the dict reference lane."""
        check = Check()
        net, c = self.network, self.consts
        inputs, paths, matrix, areas, loads = self.last
        cells = self.rng.integers(
            0, [len(matrix.origins), len(matrix.destinations)],
            size=(c["oracle_cells"], 2)).tolist()
        for position, (i, j) in enumerate(cells):
            origin, destination = matrix.origins[i], matrix.destinations[j]
            exact = shortest_path_cost(net, origin, destination,
                                       backend="dict")
            got = float(matrix.costs[i, j])
            if self.inject == "oracle_mismatch" and position == 0:
                got += 1.0
            check.expect(abs(got - exact) <= 1e-6 * max(exact, 1.0),
                         f"OD cell {origin}->{destination}: {got} vs {exact}")
        path = paths[0]
        exact = shortest_path_cost(net, path.source, path.target,
                                   backend="dict")
        check.expect(abs(path.length - exact) <= 1e-6 * max(exact, 1.0),
                     f"p2p {path.source}->{path.target} is not shortest")
        budgets = len(c["sa_budgets"])
        monotone = all(
            areas[start + b].vertices <= areas[start + b + 1].vertices
            for start in range(0, len(areas), budgets)
            for b in range(budgets - 1))
        check.expect(monotone, "service areas shrink as the budget grows")
        # Mass conservation: the length-weighted edge load equals the
        # summed shortest-path cost of the pairs that produced it.
        weights = np.asarray(self.kernel.edge_weights(None))
        mass = float(np.dot(loads.counts, weights))
        grouped = od_cost_matrix(
            net, sorted({o for o, _ in inputs["rf_pairs"]}),
            sorted({d for _, d in inputs["rf_pairs"]}), method="sweep")
        expected = sum(grouped.cost(o, d) for o, d in inputs["rf_pairs"])
        check.expect(abs(mass - expected) <= 1e-6 * max(expected, 1.0),
                     f"route-frequency mass {mass} vs {expected}")
        return check

    def layers(self, rounds: list[Round]) -> dict[str, float]:
        c, spans = self.consts, self.spans
        od_s = median(spans.durations("analytics.od_matrix"))
        sa_s = median(spans.durations("analytics.service_area"))
        queries = max(1, self.p2p_queries)
        covered = sum(spans.total(name) for name in (
            "graph.csr.p2p", "analytics.od_matrix",
            "analytics.service_area", "analytics.route_frequencies"))
        return self.graph_layers() | {
            "graph.csr.p2p_ms_p50":
                median(spans.durations("graph.csr.p2p")) * 1e3,
            "graph.csr.p2p_settled_per_query":
                self.p2p_effort["settled"] / queries,
            "graph.csr.heap_pops_per_query":
                self.p2p_effort["heap_pops"] / queries,
            "graph.csr.settled_per_query":
                self.p2p_effort["settled"] / queries,
            "graph.csr.alt_pruned_per_query":
                self.p2p_effort["alt_pruned"] / queries,
            "analytics.od_matrix_s": od_s,
            "analytics.od_pairs_per_s": ratio(
                c["od_origins"] * c["od_destinations"], od_s),
            "analytics.service_area_s": sa_s,
            "analytics.route_frequencies_s":
                median(spans.durations("analytics.route_frequencies")),
            # Rows swept by the two multi-source products per second.
            "graph.csr.multi_source_rows_per_s": ratio(
                c["od_origins"] + c["sa_sources"], od_s + sa_s),
            "bench.layer_coverage_share":
                ratio(covered, spans.total("batch.job")),
        }
