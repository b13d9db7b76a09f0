"""Synthetic serving workloads: Zipf-skewed OD-hotspot query mixes.

Navigation traffic is dominated by commuter hotspots — the same few
(source, destination) pairs repeat over and over.  The generator draws a
fixed pool of hotspot OD pairs from the network and samples each request
from that pool with Zipf-distributed popularity, which is exactly the
regime caches are built for.  ``run_workload`` replays a request list
against a :class:`RankingService` and summarises latency, throughput,
and cache behaviour as a plain JSON-able dict.

Passing a :class:`~repro.graph.partition.GraphPartition` turns the
generators *multi-region*: hotspot pools are drawn per shard (pool sizes
proportional to shard size), regions get Zipf-distributed popularity of
their own (``region_zipf_exponent`` — region 0 hottest), and a tunable
``cross_shard_fraction`` of requests spans two different shards.
``bench-serve --shards`` and the sharding tests share this one
generator, so "the same multi-region workload" means the same request
stream everywhere.

Two drive modes exist for the concurrent engine:

* **closed loop** (:func:`run_engine_workload`) — ``concurrency``
  client threads each submit their next request the moment the previous
  response arrives, the classic saturation benchmark;
* **open loop** (:func:`generate_timed_workload` +
  :func:`replay_open_loop`) — requests carry Poisson inter-arrival
  timestamps targeting ``arrival_rate_qps``, and the replayer submits
  each one at its scheduled instant regardless of completions, which is
  how production traffic actually behaves (queueing delay shows up in
  the latency numbers instead of silently throttling the offered load).
"""

from __future__ import annotations

import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from contextlib import contextmanager, nullcontext

from repro.errors import NoPathError, ServingError
from repro.graph.network import RoadNetwork
from repro.graph.shortest_path import shortest_path_cost
from repro.obs.export import SnapshotExporter
from repro.rng import RngLike, make_rng
from repro.serving.instrumentation import percentile
from repro.serving.service import RankingService, RankRequest

__all__ = ["WorkloadConfig", "TimedRequest", "zipf_weights",
           "poisson_arrivals", "generate_workload", "generate_timed_workload",
           "run_workload", "run_engine_workload", "replay_open_loop"]


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of a synthetic query stream.

    ``arrival_rate_qps`` is only consulted by the open-loop generator:
    it sets the mean of the Poisson arrival process attached to each
    request (``None`` means back-to-back, all arrivals at t=0).
    ``region_zipf_exponent`` and ``cross_shard_fraction`` are only
    consulted when a partition is passed to the generator: the former
    skews request volume across regions (shard 0 hottest; 0 < exponent,
    higher = more skew), the latter is the probability that a request's
    endpoints lie in two different shards.
    """

    num_requests: int = 200
    num_hotspots: int = 20
    zipf_exponent: float = 1.1
    min_hop_distance: float = 1.0  # metres; rejects degenerate OD pairs
    arrival_rate_qps: float | None = None
    region_zipf_exponent: float = 1.0
    cross_shard_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.num_requests < 1:
            raise ValueError(f"num_requests must be >= 1, got {self.num_requests}")
        if self.num_hotspots < 1:
            raise ValueError(f"num_hotspots must be >= 1, got {self.num_hotspots}")
        if self.zipf_exponent <= 0.0:
            raise ValueError(
                f"zipf_exponent must be > 0, got {self.zipf_exponent}"
            )
        if self.arrival_rate_qps is not None and self.arrival_rate_qps <= 0.0:
            raise ValueError(
                f"arrival_rate_qps must be > 0, got {self.arrival_rate_qps}"
            )
        if self.region_zipf_exponent <= 0.0:
            raise ValueError(
                f"region_zipf_exponent must be > 0, "
                f"got {self.region_zipf_exponent}"
            )
        if not 0.0 <= self.cross_shard_fraction <= 1.0:
            raise ValueError(
                f"cross_shard_fraction must be in [0, 1], "
                f"got {self.cross_shard_fraction}"
            )


@dataclass(frozen=True)
class TimedRequest:
    """One open-loop request: what to ask and when to ask it.

    ``arrival_s`` is the offset from the start of the replay at which
    the request enters the system.
    """

    request: RankRequest
    arrival_s: float


def zipf_weights(n: int, exponent: float) -> np.ndarray:
    """Normalised Zipf popularity weights for ranks ``1..n``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    weights = 1.0 / np.arange(1, n + 1, dtype=float) ** exponent
    return weights / weights.sum()


def poisson_arrivals(num: int, qps: float, rng: RngLike = None) -> np.ndarray:
    """Cumulative arrival offsets (seconds) of a Poisson process.

    Inter-arrival gaps are exponential with mean ``1/qps``, so a long
    stream's offered load converges on ``qps`` queries per second —
    with the bursts and lulls real traffic has, which closed-loop
    replays structurally cannot produce.
    """
    if num < 1:
        raise ValueError(f"num must be >= 1, got {num}")
    if qps <= 0.0:
        raise ValueError(f"qps must be > 0, got {qps}")
    generator = make_rng(rng)
    gaps = generator.exponential(scale=1.0 / qps, size=num)
    return np.cumsum(gaps)


def _hotspot_pool(network: RoadNetwork, config: WorkloadConfig,
                  rng: np.random.Generator) -> list[tuple[int, int]]:
    """Reachable OD pairs acting as the workload's commuter hotspots."""
    pool = _sample_pairs(network, config, rng, network.vertex_ids(),
                         count=config.num_hotspots)
    if not pool:
        raise ValueError(
            "could not find any reachable OD pair; is the network connected?"
        )
    return pool


def _sample_pairs(network: RoadNetwork, config: WorkloadConfig,
                  rng: np.random.Generator, source_ids: list[int],
                  count: int,
                  target_ids: list[int] | None = None) -> list[tuple[int, int]]:
    """Up to ``count`` distinct reachable OD pairs, rejection-sampled.

    ``target_ids`` (defaulting to ``source_ids``) lets the multi-region
    generator draw cross-shard pairs: source from one shard's nodes,
    target from another's.  Reachability is always judged on the full
    network — the serving layer's full-network retry guarantees such
    pairs are answerable even when a shard-restricted graph is not.
    """
    targets = source_ids if target_ids is None else target_ids
    pool: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    attempts = 0
    max_attempts = max(200, 50 * count)
    while len(pool) < count and attempts < max_attempts:
        attempts += 1
        if target_ids is None:
            if len(source_ids) < 2:
                break
            source, target = (int(v) for v in rng.choice(source_ids, size=2,
                                                         replace=False))
        else:
            source = int(rng.choice(source_ids))
            target = int(rng.choice(targets))
            if source == target:
                continue
        if (source, target) in seen:
            continue
        try:
            cost = shortest_path_cost(network, source, target)
        except NoPathError:
            continue
        if cost < config.min_hop_distance:
            continue
        seen.add((source, target))
        pool.append((source, target))
    return pool


def _region_pools(network: RoadNetwork, partition, config: WorkloadConfig,
                  rng: np.random.Generator):
    """Per-shard hotspot pools plus one cross-shard pool.

    Each shard's pool size is its proportional share of
    ``num_hotspots`` (at least one); the cross pool holds
    ``num_hotspots * cross_shard_fraction`` pairs whose source shard is
    drawn with the region Zipf weights and whose target shard is drawn
    uniformly among the rest.
    """
    shards = partition.shards
    total = sum(shard.size for shard in shards)
    shard_nodes = [sorted(shard.nodes) for shard in shards]
    shard_pools: list[list[tuple[int, int]]] = []
    for shard in shards:
        share = max(1, round(config.num_hotspots * shard.size / total))
        shard_pools.append(_sample_pairs(network, config, rng,
                                         shard_nodes[shard.shard_id],
                                         count=share))
    cross_pool: list[tuple[int, int]] = []
    if config.cross_shard_fraction > 0.0 and len(shards) > 1:
        want = max(1, round(config.num_hotspots * config.cross_shard_fraction))
        region_weights = zipf_weights(len(shards),
                                      config.region_zipf_exponent)
        attempts = 0
        while len(cross_pool) < want and attempts < 50 * want:
            attempts += 1
            shard_a = int(rng.choice(len(shards), p=region_weights))
            others = [s for s in range(len(shards)) if s != shard_a]
            shard_b = int(rng.choice(others))
            pair = _sample_pairs(network, config, rng, shard_nodes[shard_a],
                                 count=1, target_ids=shard_nodes[shard_b])
            if pair and pair[0] not in cross_pool:
                cross_pool.extend(pair)
    if all(not pool for pool in shard_pools) and not cross_pool:
        raise ValueError(
            "no shard yielded a reachable OD pair above min_hop_distance; "
            "lower min_hop_distance or use fewer shards"
        )
    return shard_pools, cross_pool


def _draw_region_requests(shard_pools, cross_pool, config: WorkloadConfig,
                          rng: np.random.Generator) -> list[RankRequest]:
    populated = [s for s, pool in enumerate(shard_pools) if pool]
    region_weights = None
    if populated:
        raw = zipf_weights(len(shard_pools), config.region_zipf_exponent)
        mass = np.array([raw[s] for s in populated])
        region_weights = mass / mass.sum()
    pool_weights = [zipf_weights(len(pool), config.zipf_exponent)
                    if pool else None for pool in shard_pools]
    cross_weights = (zipf_weights(len(cross_pool), config.zipf_exponent)
                     if cross_pool else None)
    requests: list[RankRequest] = []
    for request_id in range(config.num_requests):
        draw_cross = (cross_pool and
                      (not populated
                       or rng.random() < config.cross_shard_fraction))
        if draw_cross:
            index = int(rng.choice(len(cross_pool), p=cross_weights))
            source, target = cross_pool[index]
        else:
            shard = populated[int(rng.choice(len(populated),
                                             p=region_weights))]
            pool = shard_pools[shard]
            index = int(rng.choice(len(pool), p=pool_weights[shard]))
            source, target = pool[index]
        requests.append(RankRequest(source=source, target=target,
                                    request_id=request_id))
    return requests


def generate_workload(network: RoadNetwork,
                      config: WorkloadConfig | None = None,
                      rng: RngLike = None,
                      partition=None) -> list[RankRequest]:
    """A Zipf-skewed request stream over a fixed hotspot pool.

    With a :class:`~repro.graph.partition.GraphPartition` the stream is
    *multi-region*: per-shard hotspot pools with Zipf-skewed region
    popularity and a ``config.cross_shard_fraction`` of two-shard
    requests (see :class:`WorkloadConfig`).  Without one, the classic
    single-pool stream (bit-identical to previous releases under the
    same seed).
    """
    config = config or WorkloadConfig()
    generator = make_rng(rng)
    if partition is None:
        pool = _hotspot_pool(network, config, generator)
        weights = zipf_weights(len(pool), config.zipf_exponent)
        draws = generator.choice(len(pool), size=config.num_requests,
                                 p=weights)
        return [
            RankRequest(source=pool[int(i)][0], target=pool[int(i)][1],
                        request_id=request_id)
            for request_id, i in enumerate(draws)
        ]
    shard_pools, cross_pool = _region_pools(network, partition, config,
                                            generator)
    return _draw_region_requests(shard_pools, cross_pool, config, generator)


def generate_timed_workload(network: RoadNetwork,
                            config: WorkloadConfig | None = None,
                            rng: RngLike = None,
                            partition=None) -> list[TimedRequest]:
    """The Zipf OD mix plus open-loop arrival timestamps.

    The OD draw is identical to :func:`generate_workload` under the
    same rng seed (including the multi-region mix when ``partition`` is
    given); arrivals are Poisson at ``config.arrival_rate_qps`` (all
    zero when unset, i.e. "as fast as possible").
    """
    config = config or WorkloadConfig()
    generator = make_rng(rng)
    requests = generate_workload(network, config, generator,
                                 partition=partition)
    if config.arrival_rate_qps is None:
        arrivals = np.zeros(len(requests))
    else:
        arrivals = poisson_arrivals(len(requests), config.arrival_rate_qps,
                                    generator)
    return [TimedRequest(request=request, arrival_s=float(at))
            for request, at in zip(requests, arrivals)]


def _summarise(latencies: list[float], outcomes: dict[str, int],
               candidate_hits: int, requests: int,
               elapsed: float) -> dict[str, object]:
    return {
        "requests": requests,
        "elapsed_s": elapsed,
        "throughput_qps": requests / elapsed if elapsed > 0 else 0.0,
        "latency_ms": {
            "mean": float(np.mean(latencies)) if latencies else 0.0,
            "p50": percentile(latencies, 50.0),
            "p95": percentile(latencies, 95.0),
        },
        "served_by": outcomes,
        "candidate_cache_hit_rate": (
            candidate_hits / requests if requests else 0.0
        ),
    }


@contextmanager
def _armed_faults(service: RankingService, fault_spec, fault_seed: int):
    """Arm a fault spec for the duration of one replay, then disarm.

    The ``fault_spec=`` hook every drive mode shares: chaos scenarios
    (``bench-serve --fault-spec``, the resilience tests) replay a
    workload against a deliberately broken service, and the ``finally``
    guarantees hanging threads are released and the stack returns to
    dormancy even when the replay itself fails.
    """
    if fault_spec is None:
        yield None
        return
    injector = service.arm_faults(fault_spec, seed=fault_seed)
    try:
        yield injector
    finally:
        service.disarm_faults()


def _resilience_summary(service: RankingService,
                        summary: dict[str, object]) -> None:
    """Attach shed/deadline/breaker counts when any mechanism fired."""
    counts = {key: value
              for key, value in service.res_counters.as_dict().items()
              if value}
    if counts:
        summary["resilience"] = counts


def _timeline_exporter(metrics, metrics_out,
                       interval_s: float):
    """A running :class:`SnapshotExporter` for the replay, or a no-op.

    Every drive mode shares this hook: pass ``metrics_out`` and the
    replay leaves a JSONL timeline of the service's metric registry
    sampled at ``interval_s`` (plus a final flush) next to its summary.
    """
    if metrics_out is None:
        return nullcontext(None)
    return SnapshotExporter(metrics, metrics_out, interval_s=interval_s)


def run_workload(service: RankingService, requests: Sequence[RankRequest],
                 batch_size: int = 1, metrics_out=None,
                 metrics_interval_s: float = 0.25, fault_spec=None,
                 fault_seed: int = 0) -> dict[str, object]:
    """Replay ``requests`` and summarise what the service did.

    ``batch_size`` > 1 feeds the service in coalesced chunks (one padded
    forward pass per chunk); 1 replays strictly sequentially.
    ``metrics_out`` additionally writes a JSONL metrics timeline of the
    run (see :class:`~repro.obs.export.SnapshotExporter`).
    ``fault_spec`` (a spec string or rules, see
    :func:`~repro.serving.faults.parse_fault_spec`) arms deterministic
    fault injection for the duration of the replay.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    latencies: list[float] = []
    outcomes = {"model": 0, "fallback": 0, "error": 0}
    candidate_hits = 0
    started = time.perf_counter()
    with _armed_faults(service, fault_spec, fault_seed), \
            _timeline_exporter(service.metrics, metrics_out,
                               metrics_interval_s):
        for start in range(0, len(requests), batch_size):
            chunk = list(requests[start:start + batch_size])
            for response in service.rank_batch(chunk):
                latencies.append(response.latency_ms)
                outcomes[response.served_by] += 1
                candidate_hits += int(response.candidate_cache_hit)
    elapsed = time.perf_counter() - started
    summary = _summarise(latencies, outcomes, candidate_hits, len(requests),
                         elapsed)
    summary["batch_size"] = batch_size
    _resilience_summary(service, summary)
    summary["stats"] = service.stats()
    return summary


def run_engine_workload(engine, requests: Sequence[RankRequest],
                        concurrency: int = 32, metrics_out=None,
                        metrics_interval_s: float = 0.25, fault_spec=None,
                        fault_seed: int = 0,
                        wait_timeout_s: float | None = None
                        ) -> dict[str, object]:
    """Closed-loop drive: ``concurrency`` clients hammer the engine.

    Each client thread submits its next request as soon as its previous
    one is answered, so the engine always sees about ``concurrency``
    requests in flight — the regime deadline-batched coalescing is
    built for.  Returns the same summary shape as :func:`run_workload`
    plus the engine's batch-occupancy gauges.  ``fault_spec`` arms
    deterministic fault injection for the replay; ``wait_timeout_s``
    bounds each client's wait (a request still unanswered then is
    counted under ``"hung"`` instead of blocking the client forever —
    chaos replays should always set it).
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    queue = list(requests)
    cursor = threading.Lock()
    position = [0]
    latencies: list[float] = []
    outcomes = {"model": 0, "fallback": 0, "error": 0}
    hung = [0]
    refused = [0]
    candidate_hits = 0
    results_lock = threading.Lock()

    def client() -> None:
        nonlocal candidate_hits
        while True:
            with cursor:
                if position[0] >= len(queue):
                    return
                request = queue[position[0]]
                position[0] += 1
            try:
                ticket = engine.submit(request)
            except ServingError:  # injected ingress fault / closed engine
                with results_lock:
                    refused[0] += 1
                continue
            try:
                response = ticket.wait(wait_timeout_s)
            except ServingError:
                with results_lock:
                    hung[0] += 1
                continue
            with results_lock:
                latencies.append(response.latency_ms)
                outcomes[response.served_by] += 1
                candidate_hits += int(response.candidate_cache_hit)

    threads = [threading.Thread(target=client, name=f"loadgen-client-{i}")
               for i in range(min(concurrency, len(queue)))]
    started = time.perf_counter()
    with _armed_faults(engine.service, fault_spec, fault_seed), \
            _timeline_exporter(engine.service.metrics, metrics_out,
                               metrics_interval_s):
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    elapsed = time.perf_counter() - started
    summary = _summarise(latencies, outcomes, candidate_hits, len(queue),
                         elapsed)
    summary["concurrency"] = concurrency
    summary["hung"] = hung[0]
    summary["refused"] = refused[0]
    _resilience_summary(engine.service, summary)
    summary["occupancy"] = engine.occupancy.as_dict()
    return summary


def replay_open_loop(engine, timed: Sequence[TimedRequest],
                     time_scale: float = 1.0, metrics_out=None,
                     metrics_interval_s: float = 0.25, fault_spec=None,
                     fault_seed: int = 0,
                     wait_timeout_s: float | None = None
                     ) -> dict[str, object]:
    """Open-loop drive: submit each request at its arrival timestamp.

    Submissions never wait for completions, so when the engine falls
    behind the offered rate the backlog surfaces as latency rather than
    as a silently reduced request rate.  ``time_scale`` > 1 compresses
    the recorded timeline (e.g. 2.0 replays at twice the recorded QPS).
    ``fault_spec`` arms deterministic fault injection for the replay;
    ``wait_timeout_s`` bounds each ticket's collection wait (still-
    unanswered requests count under ``"hung"``).
    """
    if time_scale <= 0.0:
        raise ValueError(f"time_scale must be > 0, got {time_scale}")
    ordered = sorted(timed, key=lambda item: item.arrival_s)
    tickets = []
    latencies: list[float] = []
    outcomes = {"model": 0, "fallback": 0, "error": 0}
    hung = 0
    refused = 0
    candidate_hits = 0
    started = time.perf_counter()
    with _armed_faults(engine.service, fault_spec, fault_seed), \
            _timeline_exporter(engine.service.metrics, metrics_out,
                               metrics_interval_s):
        for item in ordered:
            due = started + item.arrival_s / time_scale
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            try:
                tickets.append(engine.submit(item.request))
            except ServingError:  # injected ingress fault
                refused += 1
        for ticket in tickets:
            try:
                response = ticket.wait(wait_timeout_s)
            except ServingError:
                hung += 1
                continue
            latencies.append(response.latency_ms)
            outcomes[response.served_by] += 1
            candidate_hits += int(response.candidate_cache_hit)
    elapsed = time.perf_counter() - started
    summary = _summarise(latencies, outcomes, candidate_hits, len(ordered),
                         elapsed)
    offered = (len(ordered) / (ordered[-1].arrival_s / time_scale)
               if ordered and ordered[-1].arrival_s > 0 else 0.0)
    summary["offered_qps"] = offered
    summary["time_scale"] = time_scale
    summary["hung"] = hung
    summary["refused"] = refused
    _resilience_summary(engine.service, summary)
    summary["occupancy"] = engine.occupancy.as_dict()
    return summary
