"""Command-line interface.

Exposes the full pipeline as subcommands so the library is usable
without writing Python::

    python -m repro.cli build-network --kind region --towns 4 --seed 11 \
        --out /tmp/net.json
    python -m repro.cli simulate-fleet --network /tmp/net.json \
        --drivers 20 --trips 8 --seed 0 --out /tmp/trips.json
    python -m repro.cli train --dataset /tmp/trips.json --variant PR-A2 \
        --embedding-dim 32 --epochs 20 --out /tmp/model.npz
    python -m repro.cli evaluate --dataset /tmp/trips.json --model /tmp/model.npz
    python -m repro.cli rank --dataset /tmp/trips.json --model /tmp/model.npz \
        --source 3 --target 47
    python -m repro.cli serve --network /tmp/net.json --model /tmp/model.npz \
        --queries-file /tmp/queries.json --json \
        --concurrency 8 --flush-deadline-ms 2 --split v0001=3,v0002=1
    python -m repro.cli od-matrix --network /tmp/net.json \
        --origins 3,9,12 --destinations 47,58 --cost travel_time
    python -m repro.cli service-area --network /tmp/net.json \
        --sources 3,9 --budgets 500,1500 --reverse
    python -m repro.cli route-frequencies --network /tmp/net.json \
        --pairs 3:47,9:58,12:47 --top 10
    python -m repro.cli metrics-dump --timeline /tmp/run.jsonl --format summary
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from contextlib import nullcontext
from pathlib import Path as FilePath

from repro.core.ranker import PathRankRanker, RankerConfig
from repro.core.trainer import TrainerConfig
from repro.core.variants import Variant
from repro.errors import ConfigError, DataError, ReproError, ServingError
from repro.graph.builders import grid_network, north_jutland_like, ring_radial_network
from repro.graph.csr import resolve_backend
from repro.graph.io import load_network_json, save_network_json
from repro.graph.osm import save_osm_xml
from repro.ranking.evaluation import evaluate_scorer
from repro.ranking.training_data import Strategy, TrainingDataConfig, generate_queries
from repro.serving import (
    ModelRegistry,
    RankingService,
    RankRequest,
    ResilienceConfig,
    ServingConfig,
    ServingEngine,
    parse_fault_spec,
)
from repro.serving.resilience import SHED_POLICIES
from repro.serving.service import EXECUTION_MODES
from repro.obs.export import (
    SnapshotExporter,
    load_timeline,
    prometheus_snapshot_lines,
    summarise_timeline,
)
from repro.analytics import (
    cost_from_name,
    od_cost_matrix,
    route_frequencies,
    service_area,
)
from repro.exec import ExecutionPlane
from repro.trajectories.dataset import TrajectoryDataset
from repro.trajectories.drivers import sample_population
from repro.trajectories.generator import FleetConfig, TrajectoryGenerator

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PathRank: learning to rank paths in spatial networks",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build-network", help="generate a road network")
    build.add_argument("--kind", choices=("grid", "ring", "region"),
                       default="region")
    build.add_argument("--rows", type=int, default=8)
    build.add_argument("--cols", type=int, default=8)
    build.add_argument("--towns", type=int, default=4)
    build.add_argument("--seed", type=int, default=11)
    build.add_argument("--out", required=True)
    build.add_argument("--osm-out", default=None,
                       help="optionally also write OSM XML")

    fleet = commands.add_parser("simulate-fleet", help="simulate trajectories")
    fleet.add_argument("--network", required=True)
    fleet.add_argument("--drivers", type=int, default=20)
    fleet.add_argument("--trips", type=int, default=8)
    fleet.add_argument("--hotspots", type=int, default=40)
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--out", required=True)

    train = commands.add_parser("train", help="train PathRank on a dataset")
    train.add_argument("--dataset", required=True)
    train.add_argument("--variant", choices=[v.value for v in Variant],
                       default="PR-A2")
    train.add_argument("--strategy", choices=[s.value for s in Strategy],
                       default="D-TkDI")
    train.add_argument("--k", type=int, default=5)
    train.add_argument("--embedding-dim", type=int, default=32)
    train.add_argument("--hidden-size", type=int, default=32)
    train.add_argument("--epochs", type=int, default=25)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", required=True)

    evaluate = commands.add_parser("evaluate", help="evaluate a trained model")
    evaluate.add_argument("--dataset", required=True)
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument("--strategy", choices=[s.value for s in Strategy],
                          default="D-TkDI")
    evaluate.add_argument("--k", type=int, default=5)
    evaluate.add_argument("--test-fraction", type=float, default=0.25)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument("--json", action="store_true",
                          help="print metrics as JSON")

    rank = commands.add_parser("rank", help="rank candidate paths for a query")
    rank.add_argument("--dataset", required=True)
    rank.add_argument("--model", required=True)
    rank.add_argument("--source", type=int, required=True)
    rank.add_argument("--target", type=int, required=True)
    rank.add_argument("--k", type=int, default=5)

    serve = commands.add_parser(
        "serve", help="answer ranking queries through the serving layer")
    serve.add_argument("--network", required=True)
    serve.add_argument("--model", required=True,
                       help="model checkpoint (.npz); its directory acts as "
                            "the model registry")
    serve.add_argument("--queries-file", required=True,
                       help="JSON request replay: a list of "
                            '{"source": ..., "target": ...} objects')
    serve.add_argument("--strategy", choices=[s.value for s in Strategy],
                       default="D-TkDI")
    serve.add_argument("--k", type=int, default=5)
    serve.add_argument("--batch-size", type=int, default=64,
                       help="coalesce this many requests per forward pass")
    serve.add_argument("--cache-size", type=int, default=1024)
    serve.add_argument("--no-fallback", action="store_true",
                       help="fail requests instead of degrading to the "
                            "shortest path")
    serve.add_argument("--concurrency", type=int, default=0,
                       help="serve through the concurrent engine with this "
                            "many workers (0 = synchronous facade)")
    serve.add_argument("--flush-deadline-ms", type=float, default=2.0,
                       help="engine scoring-batch flush deadline in ms")
    serve.add_argument("--split", default=None,
                       help="A/B traffic split, e.g. 'v0001=3,v0002=1' "
                            "(weights are normalised)")
    serve.add_argument("--json", action="store_true",
                       help="print responses and stats as JSON")
    serve.add_argument("--execution",
                       choices=EXECUTION_MODES, default="inline",
                       help="execution plane: inline (default) or processes "
                            "(worker pool over shared-memory CSR + weights)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker processes for --execution processes")
    serve.add_argument("--trace-sample", type=float, default=0.0,
                       help="fraction of requests to trace, in [0, 1] "
                            "(default 0: tracing off); traced runs report "
                            "per-stage latency breakdowns plus slow-request "
                            "exemplars")
    serve.add_argument("--metrics-out", default=None,
                       help="append periodic metrics snapshots to this "
                            "JSONL timeline (readable via metrics-dump)")
    serve.add_argument("--metrics-interval-s", type=float, default=0.25,
                       help="snapshot cadence for --metrics-out")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="per-request deadline budget; expired requests "
                            "get a structured deadline_exceeded error "
                            "(default: no deadline)")
    serve.add_argument("--max-queue", type=int, default=0,
                       help="bound the engine admission queue; requests "
                            "beyond it are shed per --shed-policy "
                            "(0 = unbounded)")
    serve.add_argument("--shed-policy", choices=SHED_POLICIES,
                       default="reject",
                       help="what happens to requests the full queue cannot "
                            "admit: reject with a retry-after hint, or "
                            "degrade to the shortest path")
    serve.add_argument("--fault-spec", default=None,
                       help="arm deterministic fault injection for the "
                            "replay, e.g. 'score:error;prepare:delay=20' "
                            "(see docs/robustness.md)")
    serve.add_argument("--fault-seed", type=int, default=0,
                       help="determinism seed for --fault-spec firing draws")

    od = commands.add_parser(
        "od-matrix",
        help="batched origin-destination least-cost matrix")
    od.add_argument("--network", required=True)
    od.add_argument("--origins", required=True,
                    help="comma-separated origin vertex ids, e.g. 3,9,12")
    od.add_argument("--destinations", default=None,
                    help="comma-separated destination vertex ids "
                         "(default: the origins)")
    od.add_argument("--chunk-size", type=int, default=None,
                    help="sweep rows per slab (default: sized for ~32 MB)")
    _add_analytics_flags(od)

    area = commands.add_parser(
        "service-area",
        help="batched isochrones: vertices/edges within cost budgets")
    area.add_argument("--network", required=True)
    area.add_argument("--sources", required=True,
                      help="comma-separated source vertex ids")
    area.add_argument("--budgets", required=True,
                      help="comma-separated cost budgets, e.g. 500,1500")
    area.add_argument("--reverse", action="store_true",
                      help="catchments instead of reach: everything that "
                           "can get *to* each source within the budget")
    _add_analytics_flags(area)

    freq = commands.add_parser(
        "route-frequencies",
        help="per-edge load over a workload of shortest-path pairs")
    freq.add_argument("--network", required=True)
    freq.add_argument("--pairs", default=None,
                      help="comma-separated origin:destination pairs, "
                           "e.g. 3:47,9:58")
    freq.add_argument("--pairs-file", default=None,
                      help="JSON workload: a list of [source, target] "
                           'pairs or {"source": ..., "target": ...} objects')
    freq.add_argument("--top", type=int, default=10,
                      help="print the N most-loaded edges (0 = all)")
    _add_analytics_flags(freq)

    dump = commands.add_parser(
        "metrics-dump",
        help="read a SnapshotExporter JSONL timeline back out")
    dump.add_argument("--timeline", required=True,
                      help="JSONL timeline written via --metrics-out")
    dump.add_argument("--format", choices=("summary", "last", "prom"),
                      default="summary",
                      help="summary: first/last/delta per series; last: "
                           "the final snapshot's flat metrics as JSON; "
                           "prom: the final snapshot in the Prometheus "
                           "text format")

    return parser


def _add_analytics_flags(subparser: argparse.ArgumentParser) -> None:
    """Batch-context flags shared by the analytics subcommands."""
    subparser.add_argument("--cost", choices=("length", "travel_time"),
                           default="length",
                           help="edge cost the products optimise")
    subparser.add_argument("--workers", type=int, default=0,
                           help="fan tiles across a process pool with this "
                                "many workers (0 = run inline)")
    subparser.add_argument("--json", action="store_true",
                           help="print the full product as JSON")


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------
def _cmd_build_network(args: argparse.Namespace) -> int:
    if args.kind == "grid":
        network = grid_network(args.rows, args.cols, seed=args.seed)
    elif args.kind == "ring":
        network = ring_radial_network(seed=args.seed)
    else:
        network = north_jutland_like(num_towns=args.towns, seed=args.seed)
    save_network_json(network, args.out)
    print(f"wrote {network} -> {args.out}")
    if args.osm_out:
        save_osm_xml(network, args.osm_out)
        print(f"wrote OSM XML -> {args.osm_out}")
    return 0


def _cmd_simulate_fleet(args: argparse.Namespace) -> int:
    network = load_network_json(args.network)
    config = FleetConfig(num_drivers=args.drivers, trips_per_driver=args.trips,
                         num_od_hotspots=args.hotspots)
    population = sample_population(config.num_drivers, rng=args.seed)
    generator = TrajectoryGenerator(network, population, config)
    trips = generator.generate(rng=args.seed + 1)
    TrajectoryDataset(network, trips).save(args.out)
    print(f"wrote {len(trips)} trips from {len(population)} drivers -> {args.out}")
    return 0


def _ranker_config(args: argparse.Namespace) -> RankerConfig:
    return RankerConfig(
        variant=Variant.from_name(args.variant),
        embedding_dim=args.embedding_dim,
        hidden_size=args.hidden_size,
        fc_hidden=max(args.hidden_size // 2, 4),
        training_data=TrainingDataConfig(
            strategy=Strategy.from_name(args.strategy), k=args.k),
        trainer=TrainerConfig(epochs=args.epochs,
                              patience=max(args.epochs // 4, 3)),
    )


def _cmd_train(args: argparse.Namespace) -> int:
    dataset = TrajectoryDataset.load(args.dataset)
    ranker = PathRankRanker(dataset.network, _ranker_config(args))
    ranker.fit(list(dataset), rng=args.seed)
    ranker.save(args.out)
    history = ranker.history
    print(f"trained {args.variant} for {history.epochs_run} epochs "
          f"(loss {history.train_loss[0]:.4f} -> {history.train_loss[-1]:.4f})")
    print(f"wrote model -> {args.out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = TrajectoryDataset.load(args.dataset)
    split = dataset.split(train_fraction=1.0 - args.test_fraction,
                          validation_fraction=0.0, rng=args.seed)
    ranker = PathRankRanker(dataset.network).load(args.model)
    queries = generate_queries(
        split.test,
        TrainingDataConfig(strategy=Strategy.from_name(args.strategy), k=args.k),
    )
    metrics = evaluate_scorer(ranker, queries)
    if args.json:
        print(json.dumps({
            "mae": metrics.mae,
            "mare": metrics.mare,
            "tau": metrics.tau,
            "rho": metrics.rho,
            "queries": metrics.num_queries,
        }))
    else:
        print(metrics)
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    dataset = TrajectoryDataset.load(args.dataset)
    ranker = PathRankRanker(dataset.network, RankerConfig(
        training_data=TrainingDataConfig(k=args.k))).load(args.model)
    if not dataset.network.has_vertex(args.source) \
            or not dataset.network.has_vertex(args.target):
        print("error: source/target vertex not in the network", file=sys.stderr)
        return 2
    results = ranker.rank(args.source, args.target)
    if not results:
        print("no candidate paths found")
        return 1
    for position, (path, score) in enumerate(results, start=1):
        print(f"#{position} score={score:.4f} length={path.length:.0f}m "
              f"time={path.travel_time:.0f}s vertices={path.num_vertices}")
    return 0


def _parse_split(text: str | None) -> dict[str, float] | None:
    """Parse an A/B split flag: ``'v0001=3,v0002=1'`` -> weight map."""
    if text is None:
        return None
    split: dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        version, _, weight = part.partition("=")
        if not version or not weight:
            raise ServingError(
                f"malformed --split entry {part!r}; expected version=weight")
        try:
            split[version] = float(weight)
        except ValueError:
            raise ServingError(
                f"--split weight for {version!r} must be a number, "
                f"got {weight!r}") from None
    if not split:
        raise ServingError("--split named no versions")
    return split


def _build_service(args: argparse.Namespace):
    """``serve`` bootstrap: network + registry + activated service."""
    network = load_network_json(args.network)
    model_path = FilePath(args.model)
    if not model_path.exists():
        # Check before ModelRegistry mkdirs a typo'd parent directory.
        raise ServingError(f"no such model checkpoint: {model_path}")
    registry = ModelRegistry(model_path.parent, network)
    split = _parse_split(args.split)
    if split is not None:
        for version in split:
            if not registry.has_version(version):
                known = ", ".join(registry.versions()) or "none"
                raise ServingError(
                    f"--split names unpublished version {version!r} "
                    f"(published: {known})")
    resilience = ResilienceConfig(
        deadline_ms=args.deadline_ms,
        max_queue=args.max_queue,
        shed_policy=args.shed_policy,
    )
    config = ServingConfig(
        candidates=TrainingDataConfig(
            strategy=Strategy.from_name(args.strategy), k=args.k),
        candidate_cache_size=args.cache_size,
        max_batch_size=args.batch_size * args.k,
        fallback_to_shortest=not args.no_fallback,
        traffic_split=split,
        trace_sample=args.trace_sample,
        resilience=resilience,
        execution=args.execution,
        workers=args.workers,
    )
    service = RankingService(network, registry, config)
    try:
        service.activate(model_path.stem)
    except BaseException:
        service.close()
        raise
    return service


def _load_queries(path: str) -> list[RankRequest]:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if isinstance(payload, dict):
        payload = payload.get("queries")
    if not isinstance(payload, list) or not payload:
        raise DataError(f"{path} must hold a non-empty JSON list of queries")
    requests = []
    for position, entry in enumerate(payload):
        if not isinstance(entry, dict) or "source" not in entry \
                or "target" not in entry:
            raise DataError(
                f"query #{position} must be an object with source/target"
            )
        requests.append(RankRequest(
            source=int(entry["source"]), target=int(entry["target"]),
            k=int(entry["k"]) if "k" in entry else None,
            request_id=position,
        ))
    return requests


def _timeline(service, args: argparse.Namespace):
    """A running :class:`SnapshotExporter` for ``--metrics-out``, or a
    no-op context when the flag is absent."""
    if args.metrics_out is None:
        return nullcontext(None)
    return SnapshotExporter(service.metrics, args.metrics_out,
                            interval_s=args.metrics_interval_s)


def _print_trace_breakdown(trace: dict) -> None:
    """Human-readable per-stage latencies + slow-request exemplars."""
    print(f"trace: sample={trace['sample']} "
          f"finished={trace['finished']} requests")
    for name, summary in trace["stages"].items():
        print(f"  stage {name:<12} p50 {summary['p50']:.3f} ms  "
              f"p95 {summary['p95']:.3f} ms  "
              f"(n={int(summary['count'])})")
    for record in trace["slow_requests"][:3]:
        label = record.get("request", record.get("label", "?"))
        spans = ", ".join(
            f"{span['name']} {span['duration_ms']:.2f}ms"
            for span in record.get("spans", []))
        print(f"  slow {label}: {record['latency_ms']:.2f} ms [{spans}]")


def _cmd_serve(args: argparse.Namespace) -> int:
    # Validate every input before the service exists: under --execution
    # processes it owns worker processes and shared-memory segments.
    if args.concurrency < 0:
        raise ConfigError(
            f"--concurrency must be >= 0, got {args.concurrency}")
    if args.batch_size < 1:
        raise ConfigError(
            f"--batch-size must be >= 1, got {args.batch_size}")
    requests = _load_queries(args.queries_file)
    faults = (None if args.fault_spec is None
              else parse_fault_spec(args.fault_spec))
    service = _build_service(args)
    try:
        if faults is not None:
            service.arm_faults(faults, seed=args.fault_seed)
        if args.concurrency > 0:
            # Concurrent front door: the engine re-batches by its own
            # deadline/size policy; responses stay in request order.
            with ServingEngine(
                    service, concurrency=args.concurrency,
                    flush_deadline_ms=args.flush_deadline_ms) as engine:
                with _timeline(service, args):
                    responses = engine.rank_batch(requests)
                stats = engine.stats()
        else:
            responses = []
            with _timeline(service, args):
                for start in range(0, len(requests), args.batch_size):
                    responses.extend(
                        service.rank_batch(
                            requests[start:start + args.batch_size]))
            stats = service.stats()
    finally:
        if faults is not None:
            service.disarm_faults()
        service.close()
    if args.json:
        print(json.dumps({
            "responses": [
                {
                    "source": r.request.source,
                    "target": r.request.target,
                    "served_by": r.served_by,
                    "model_version": r.model_version,
                    "candidate_cache_hit": r.candidate_cache_hit,
                    "latency_ms": r.latency_ms,
                    "top_score": r.top.score if r.top else None,
                    "top_vertices": list(r.top.path.vertices) if r.top else None,
                    "error": r.error,
                }
                for r in responses
            ],
            "stats": stats,
        }))
        return 0 if all(r.ok for r in responses) else 1
    for r in responses:
        if not r.ok:
            print(f"{r.request.source}->{r.request.target}: ERROR {r.error}")
            continue
        top = r.top
        print(f"{r.request.source}->{r.request.target}: "
              f"{len(r.results)} candidates via {r.served_by}, "
              f"top score={top.score:.4f} length={top.path.length:.0f}m "
              f"({'cache hit' if r.candidate_cache_hit else 'cold'}, "
              f"{r.latency_ms:.2f} ms)")
    print(f"served {stats['counters']['requests']} requests | "
          f"candidate-cache hit rate "
          f"{stats['candidate_cache']['hit_rate']:.2f} | "
          f"p50 {stats['latency']['p50_ms']:.2f} ms, "
          f"p95 {stats['latency']['p95_ms']:.2f} ms")
    if "trace" in stats:
        _print_trace_breakdown(stats["trace"])
    return 0 if all(r.ok for r in responses) else 1


def _parse_id_list(text: str, flag: str) -> list[int]:
    try:
        ids = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise DataError(
            f"{flag} must be comma-separated vertex ids, got {text!r}"
        ) from None
    if not ids:
        raise DataError(f"{flag} named no vertices")
    return ids


def _parse_budget_list(text: str) -> list[float]:
    try:
        budgets = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise DataError(
            f"--budgets must be comma-separated numbers, got {text!r}"
        ) from None
    if not budgets:
        raise DataError("--budgets named no budgets")
    return budgets


def _parse_pair_workload(args: argparse.Namespace) -> list[tuple[int, int]]:
    """The route-frequency workload from ``--pairs`` or ``--pairs-file``."""
    if args.pairs_file is not None:
        with open(args.pairs_file, encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, list) or not payload:
            raise DataError(
                f"{args.pairs_file} must hold a non-empty JSON list of pairs")
        pairs = []
        for position, entry in enumerate(payload):
            if isinstance(entry, dict):
                if "source" not in entry or "target" not in entry:
                    raise DataError(f"pair #{position} must have "
                                    "source/target")
                pairs.append((int(entry["source"]), int(entry["target"])))
            elif isinstance(entry, (list, tuple)) and len(entry) == 2:
                pairs.append((int(entry[0]), int(entry[1])))
            else:
                raise DataError(f"pair #{position} must be [source, target] "
                                "or an object with source/target")
        return pairs
    if args.pairs is None:
        raise DataError("route-frequencies needs --pairs or --pairs-file")
    pairs = []
    for part in args.pairs.split(","):
        part = part.strip()
        if not part:
            continue
        origin, sep, destination = part.partition(":")
        if not sep or not origin or not destination:
            raise DataError(f"malformed --pairs entry {part!r}; expected "
                            "origin:destination")
        try:
            pairs.append((int(origin), int(destination)))
        except ValueError:
            raise DataError(
                f"--pairs entry {part!r} must name two vertex ids") from None
    if not pairs:
        raise DataError("--pairs named no pairs")
    return pairs


def _analytics_plane(args: argparse.Namespace, network):
    """The worker pool behind --workers, or None to run inline."""
    if args.workers < 0:
        raise ConfigError(f"--workers must be >= 0, got {args.workers}")
    if args.workers == 0:
        return None
    return ExecutionPlane(network, workers=args.workers)


def _cmd_od_matrix(args: argparse.Namespace) -> int:
    network = load_network_json(args.network)
    origins = _parse_id_list(args.origins, "--origins")
    destinations = (None if args.destinations is None
                    else _parse_id_list(args.destinations, "--destinations"))
    plane = _analytics_plane(args, network)
    try:
        matrix = od_cost_matrix(network, origins, destinations,
                                cost=cost_from_name(args.cost),
                                chunk_size=args.chunk_size,
                                plane=plane)
    finally:
        if plane is not None:
            plane.close()
    if args.json:
        print(json.dumps(matrix.as_dict()))
        return 0
    for row, origin in enumerate(matrix.origins):
        cells = " ".join(
            f"{destination}={'inf' if c == float('inf') else f'{c:.1f}'}"
            for destination, c in zip(matrix.destinations, matrix.costs[row]))
        print(f"origin {origin}: {cells}")
    print(f"{matrix.num_pairs} pairs via {matrix.method} "
          f"({matrix.sweeps} sweeps, "
          f"{matrix.num_disconnected} disconnected)")
    return 0


def _cmd_service_area(args: argparse.Namespace) -> int:
    network = load_network_json(args.network)
    sources = _parse_id_list(args.sources, "--sources")
    budgets = _parse_budget_list(args.budgets)
    plane = _analytics_plane(args, network)
    try:
        areas = service_area(network, sources, budgets,
                             cost=cost_from_name(args.cost),
                             reverse=args.reverse,
                             plane=plane)
    finally:
        if plane is not None:
            plane.close()
    if args.json:
        print(json.dumps([area.as_dict() for area in areas]))
        return 0
    for area in areas:
        kind = "catchment" if area.reverse else "reach"
        print(f"source {area.source} budget {area.budget:g} ({kind}): "
              f"{area.num_vertices} vertices, {area.num_edges} edges")
    return 0


def _cmd_route_frequencies(args: argparse.Namespace) -> int:
    network = load_network_json(args.network)
    pairs = _parse_pair_workload(args)
    plane = _analytics_plane(args, network)
    try:
        frequencies = route_frequencies(network, pairs,
                                        cost=cost_from_name(args.cost),
                                        plane=plane)
    finally:
        if plane is not None:
            plane.close()
    if args.json:
        print(json.dumps(frequencies.as_dict()))
        return 0
    loaded = sorted(frequencies.items(), key=lambda item: -item[1])
    shown = loaded if args.top <= 0 else loaded[:args.top]
    for (u, v), load in shown:
        print(f"edge {u}->{v}: {load:g}")
    if len(loaded) > len(shown):
        print(f"... {len(loaded) - len(shown)} more loaded edges")
    print(f"{frequencies.num_pairs} pairs over {len(loaded)} loaded edges "
          f"({frequencies.unreachable_pairs} unreachable)")
    return 0


def _cmd_metrics_dump(args: argparse.Namespace) -> int:
    snapshots = load_timeline(args.timeline)
    if not snapshots:
        print(f"error: {args.timeline} holds no metrics snapshots",
              file=sys.stderr)
        return 2
    if args.format == "summary":
        print(json.dumps(summarise_timeline(snapshots), indent=2))
    elif args.format == "last":
        print(json.dumps(snapshots[-1]["metrics"], indent=2, sort_keys=True))
    else:
        for line in prometheus_snapshot_lines(snapshots[-1]["metrics"]):
            print(line)
    return 0


_COMMANDS = {
    "build-network": _cmd_build_network,
    "simulate-fleet": _cmd_simulate_fleet,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "rank": _cmd_rank,
    "serve": _cmd_serve,
    "od-matrix": _cmd_od_matrix,
    "service-area": _cmd_service_area,
    "route-frequencies": _cmd_route_frequencies,
    "metrics-dump": _cmd_metrics_dump,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        resolve_backend()  # a bad REPRO_ROUTING_BACKEND fails every command
        return _COMMANDS[args.command](args)
    except (ReproError, OSError, ValueError) as exc:
        # Missing model/network files, malformed inputs, and out-of-range
        # parameters should exit with a clean one-line diagnostic, not a
        # traceback.  (json.JSONDecodeError is a ValueError.)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
