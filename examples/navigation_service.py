"""Scenario: a navigation backend that suggests driver-preferred routes.

This is the workload the paper's introduction motivates: commercial
services return several candidate paths, and the interesting question is
which one to put on top.  The script trains PathRank on fleet history,
publishes the model into a :class:`~repro.serving.ModelRegistry`, and
answers held-out queries through the **concurrent**
:class:`~repro.serving.ServingEngine` — warm-up from the training
hotspot mix, candidate caching, group-commit cross-request
coalescing, and per-request latency accounting included — then compares
its top suggestion against the classic criteria (shortest, fastest) by
how well each matches what a held-out driver actually drove.

    python examples/navigation_service.py
"""

import tempfile

import numpy as np

from repro.core import PathRankRanker, RankerConfig, TrainerConfig, Variant
from repro.graph import (
    north_jutland_like,
    shortest_path,
    travel_time_cost,
    weighted_jaccard,
)
from repro.ranking import Strategy, TrainingDataConfig
from repro.serving import (
    ModelRegistry,
    RankingService,
    RankRequest,
    ServingConfig,
    ServingEngine,
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
        # before the engine takes its first request.
        warmup = [RankRequest(source=trip.source, target=trip.target)
                  for trip in split.train[:40]]
        requests = [RankRequest(source=trip.source, target=trip.target,
                                request_id=trip.trip_id)
                    for trip in split.test[:30]]
        by_id = {trip.trip_id: trip for trip in split.test}
        overlaps = {"PathRank": [], "shortest": [], "fastest": []}
        served = 0
        with ServingEngine(service, concurrency=8,
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


if __name__ == "__main__":
    main()
