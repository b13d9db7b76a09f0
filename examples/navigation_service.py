"""Scenario: a navigation backend that suggests driver-preferred routes.

This is the workload the paper's introduction motivates: commercial
services return several candidate paths, and the interesting question is
which one to put on top.  The script trains PathRank on fleet history,
publishes the model into a :class:`~repro.serving.ModelRegistry`, and
answers held-out queries through the **concurrent**
:class:`~repro.serving.ServingEngine` — warm-up from the training
hotspot mix, candidate caching, deadline-batched cross-request
coalescing, and per-request latency accounting included — then compares
its top suggestion against the classic criteria (shortest, fastest) by
how well each matches what a held-out driver actually drove.

The final section rebuilds the same deployment on the **shard plane**:
the region is partitioned into two road-distance Voronoi shards, the
published model serves both through a shared
:class:`~repro.serving.ShardedRegistry`, and the engine coalesces each
shard's traffic through that shard's own caches and scorer — the
arrangement that scales to graphs too big for one cache or one
embedding matrix.

    python examples/navigation_service.py
"""

import tempfile

import numpy as np

from repro.core import PathRankRanker, RankerConfig, TrainerConfig, Variant
from repro.graph import (
    north_jutland_like,
    shortest_path,
    travel_time_cost,
    voronoi_partition,
    weighted_jaccard,
)
from repro.ranking import Strategy, TrainingDataConfig
from repro.serving import (
    ModelRegistry,
    RankingService,
    RankRequest,
    ServingConfig,
    ServingEngine,
    ShardedRegistry,
)
from repro.trajectories import FleetConfig, TrajectoryDataset, generate_fleet


def main() -> None:
    network = north_jutland_like(num_towns=4, town_size_range=(3, 5), seed=11)
    fleet = FleetConfig(num_drivers=24, trips_per_driver=8, num_od_hotspots=30)
    _, trips = generate_fleet(network, rng=0, config=fleet)
    dataset = TrajectoryDataset(network, trips)
    split = dataset.split(train_fraction=0.8, validation_fraction=0.0, rng=0)
    print(f"{network} | train {len(split.train)} trips, test {len(split.test)} trips")

    candidates = TrainingDataConfig(strategy=Strategy.D_TKDI, k=5,
                                    diversity_threshold=0.8,
                                    examine_limit=100)
    config = RankerConfig(
        variant=Variant.PR_A2,
        embedding_dim=32,
        hidden_size=32,
        fc_hidden=16,
        training_data=candidates,
        trainer=TrainerConfig(epochs=25, patience=6),
    )
    ranker = PathRankRanker(network, config)
    ranker.fit(split.train, rng=0)
    print(f"trained in {ranker.history.epochs_run} epochs\n")

    with tempfile.TemporaryDirectory() as artifacts:
        # Offline -> online handoff: publish the trained model, then serve.
        registry = ModelRegistry(artifacts, network)
        version = registry.publish(ranker, activate=True)
        service = RankingService(
            network, registry, ServingConfig(candidates=candidates))
        print(f"serving model version {version} from {registry.root}")

        # Held-out queries arrive concurrently in production; the engine
        # coalesces them into shared scoring batches.  Warm-up replays
        # the training OD mix (yesterday's hotspots) through the caches
        # before the engine reports ready.
        warmup = [RankRequest(source=trip.source, target=trip.target)
                  for trip in split.train[:40]]
        requests = [RankRequest(source=trip.source, target=trip.target,
                                request_id=trip.trip_id)
                    for trip in split.test[:30]]
        by_id = {trip.trip_id: trip for trip in split.test}
        overlaps = {"PathRank": [], "shortest": [], "fastest": []}
        served = 0
        with ServingEngine(service, concurrency=8, flush_deadline_ms=2.0,
                           warmup=warmup) as engine:
            print(f"engine ready (warmed {engine.warmed_up} hotspot queries)")
            responses = engine.rank_batch(requests)
            for response in responses:
                if len(response.results) < 2:
                    continue
                served += 1
                trip = by_id[response.request.request_id]
                overlaps["PathRank"].append(
                    weighted_jaccard(response.top.path, trip.path))
                overlaps["shortest"].append(weighted_jaccard(
                    shortest_path(network, trip.source, trip.target), trip.path))
                overlaps["fastest"].append(weighted_jaccard(
                    shortest_path(network, trip.source, trip.target,
                                  travel_time_cost), trip.path))
            stats = engine.stats()

        print(f"top-suggestion overlap with the driver's actual route "
              f"({served} held-out trips):")
        for name, values in overlaps.items():
            print(f"  {name:>9}: mean weighted Jaccard = {np.mean(values):.3f}")

        best = max(overlaps, key=lambda name: np.mean(overlaps[name]))
        print(f"\nbest criterion on this fleet: {best}")

        occupancy = stats["engine"]["occupancy"]
        print(f"\nserving stats: {stats['counters']['requests']} requests, "
              f"candidate-cache hit rate "
              f"{stats['candidate_cache']['hit_rate']:.2f}, "
              f"{stats['scoring']['batches_run']} forward batches for "
              f"{stats['scoring']['paths_scored']} paths, "
              f"{occupancy['mean_requests_per_flush']:.1f} requests per "
              f"engine flush, p95 latency {stats['latency']['p95_ms']:.1f} ms")

        # ------------------------------------------------------------------
        # The same deployment on the shard plane: two regions, one engine.
        # ------------------------------------------------------------------
        # Partition the region into two road-distance Voronoi shards and
        # back both with the already-published checkpoint (a shared
        # registry): every request is owned by its source shard — its
        # own candidate/score caches, its own scoring batches — while
        # candidates are always enumerated on the full network, so every
        # ranking stays element-wise identical to the unsharded engine's.
        partition = voronoi_partition(network, 2, rng=0)
        sharded = ShardedRegistry.shared(registry, partition)
        sharded_service = RankingService(
            network, sharded, ServingConfig(candidates=candidates))
        sharded_service.activate(version)
        with ServingEngine(sharded_service, concurrency=8,
                           flush_deadline_ms=2.0, warmup=warmup) as engine:
            sharded_responses = engine.rank_batch(requests)
            sharded_stats = engine.stats()

        agree = sum(
            1 for mine, theirs in zip(sharded_responses, responses)
            if [r.path.vertices for r in mine.results]
            == [r.path.vertices for r in theirs.results]
        )
        print(f"\nshard plane: {partition.num_shards} regions "
              f"(sizes {[s.size for s in partition.shards]}, "
              f"{partition.cut_edges} cut edges), "
              f"{agree}/{len(requests)} responses identical to the "
              f"unsharded engine")
        for label, entry in sharded_stats["sharding"]["per_shard"].items():
            requests_block = entry.get("requests", {})
            print(f"  {label}: {requests_block.get('requests', 0)} requests "
                  f"({requests_block.get('cross_shard', 0)} cross-shard), "
                  f"candidate-cache hit rate "
                  f"{entry['candidate_cache']['hit_rate']:.2f}")


if __name__ == "__main__":
    main()
