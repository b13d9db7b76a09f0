"""Tests for driver profiles, population sampling, and fleet simulation."""

import numpy as np
import pytest

from repro.errors import DataError
from repro.graph import RoadCategory, shortest_path, travel_time_cost, weighted_jaccard
from repro.trajectories import (
    ARCHETYPES,
    DriverProfile,
    FleetConfig,
    TrajectoryDataset,
    TrajectoryGenerator,
    Trip,
    generate_fleet,
    sample_population,
)


def flat_profile(driver_id=0, noise=0.0):
    return DriverProfile(
        driver_id=driver_id,
        category_multipliers={c: 1.0 for c in RoadCategory},
        familiarity_noise=noise,
    )


class TestDriverProfile:
    def test_flat_profile_equals_travel_time(self, tiny_network):
        profile = flat_profile()
        edge = tiny_network.edge(0, 1)
        assert profile.perceived_cost(edge) == pytest.approx(edge.travel_time)

    def test_multiplier_scales_cost(self, tiny_network):
        multipliers = {c: 1.0 for c in RoadCategory}
        multipliers[RoadCategory.LOCAL] = 2.0
        profile = DriverProfile(0, multipliers, familiarity_noise=0.0)
        edge = tiny_network.edge(0, 1)  # LOCAL
        assert profile.perceived_cost(edge) == pytest.approx(2.0 * edge.travel_time)

    def test_familiarity_stable_per_edge(self, tiny_network):
        profile = flat_profile(noise=0.3)
        edge = tiny_network.edge(0, 1)
        assert profile.perceived_cost(edge) == profile.perceived_cost(edge)

    def test_familiarity_differs_between_drivers(self, tiny_network):
        edge = tiny_network.edge(0, 1)
        a = flat_profile(driver_id=1, noise=0.3).perceived_cost(edge)
        b = flat_profile(driver_id=2, noise=0.3).perceived_cost(edge)
        assert a != b

    def test_missing_category_rejected(self):
        with pytest.raises(ValueError):
            DriverProfile(0, {RoadCategory.MOTORWAY: 1.0})

    def test_non_positive_multiplier_rejected(self):
        multipliers = {c: 1.0 for c in RoadCategory}
        multipliers[RoadCategory.LOCAL] = 0.0
        with pytest.raises(ValueError):
            DriverProfile(0, multipliers)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            flat_profile(noise=-0.1)

    def test_motorway_avoider_prefers_surface_roads(self, tiny_network):
        avoider = DriverProfile(0, ARCHETYPES["motorway_avoider"][0],
                                familiarity_noise=0.0)
        chosen = shortest_path(tiny_network, 0, 2, avoider.cost_function())
        assert (0, 2) not in chosen.edge_set  # skips the motorway

    def test_motorway_lover_takes_motorway(self, tiny_network):
        lover = DriverProfile(0, ARCHETYPES["motorway_lover"][0],
                              familiarity_noise=0.0)
        chosen = shortest_path(tiny_network, 0, 2, lover.cost_function())
        assert (0, 2) in chosen.edge_set


class TestPopulation:
    def test_size_and_ids(self):
        population = sample_population(10, rng=0)
        assert len(population) == 10
        assert [p.driver_id for p in population] == list(range(10))

    def test_deterministic(self):
        a = sample_population(5, rng=3)
        b = sample_population(5, rng=3)
        assert all(
            x.category_multipliers == y.category_multipliers for x, y in zip(a, b)
        )

    def test_archetype_mixture(self):
        population = sample_population(200, rng=0)
        names = {p.archetype for p in population}
        assert names == set(ARCHETYPES)

    def test_jitter_makes_drivers_distinct(self):
        population = sample_population(20, rng=1)
        multipliers = {
            tuple(sorted((c.value, round(v, 9))
                         for c, v in p.category_multipliers.items()))
            for p in population
        }
        assert len(multipliers) == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_population(0)
        with pytest.raises(ValueError):
            sample_population(5, multiplier_jitter=-1.0)
        with pytest.raises(ValueError):
            sample_population(5, archetypes={})


class TestFleet:
    def test_generate_counts(self, region_network):
        population, trips = generate_fleet(region_network, num_drivers=4,
                                           trips_per_driver=3, rng=0)
        assert len(population) == 4
        assert len(trips) == 12
        assert [t.trip_id for t in trips] == list(range(12))

    def test_trips_respect_min_distance(self, region_network):
        config = FleetConfig(num_drivers=3, trips_per_driver=3,
                             min_trip_distance=2000.0)
        _, trips = generate_fleet(region_network, rng=1, config=config)
        for trip in trips:
            crow = region_network.euclidean(trip.source, trip.target)
            assert crow >= 2000.0

    def test_deterministic(self, region_network):
        _, a = generate_fleet(region_network, num_drivers=3, trips_per_driver=2, rng=9)
        _, b = generate_fleet(region_network, num_drivers=3, trips_per_driver=2, rng=9)
        assert [t.path.vertices for t in a] == [t.path.vertices for t in b]

    def test_some_trips_deviate_from_fastest(self, region_network):
        _, trips = generate_fleet(region_network, num_drivers=10,
                                  trips_per_driver=5, rng=0)
        deviating = sum(
            1 for trip in trips
            if weighted_jaccard(
                trip.path,
                shortest_path(region_network, trip.source, trip.target,
                              travel_time_cost),
            ) < 0.999
        )
        # The learnable signal the paper relies on: drivers are not all
        # taking the fastest path.
        assert deviating >= len(trips) * 0.2

    def test_impossible_min_distance(self, tiny_network):
        population = [flat_profile()]
        config = FleetConfig(min_trip_distance=1e9, max_od_attempts=5)
        generator = TrajectoryGenerator(tiny_network, population, config)
        with pytest.raises(DataError):
            generator.generate_trip(0, population[0], rng=0)

    def test_empty_population_rejected(self, tiny_network):
        with pytest.raises(ValueError):
            TrajectoryGenerator(tiny_network, [])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(num_drivers=0)
        with pytest.raises(ValueError):
            FleetConfig(via_detour_probability=1.5)
        with pytest.raises(ValueError):
            FleetConfig(min_trip_distance=-1.0)

    def test_render_gps(self, region_network):
        population, trips = generate_fleet(region_network, num_drivers=2,
                                           trips_per_driver=2, rng=0)
        generator = TrajectoryGenerator(region_network, population)
        gps = generator.render_gps(trips, rng=0)
        assert len(gps) == len(trips)
        assert all(len(t) >= 2 for t in gps)


class TestDataset:
    @pytest.fixture(scope="class")
    def dataset(self, region_network):
        _, trips = generate_fleet(region_network, num_drivers=6,
                                  trips_per_driver=5, rng=2)
        return TrajectoryDataset(region_network, trips)

    def test_len_iter(self, dataset):
        assert len(dataset) == 30
        assert len(list(dataset)) == 30

    def test_num_drivers(self, dataset):
        assert dataset.num_drivers == 6

    def test_split_fractions(self, dataset):
        split = dataset.split(train_fraction=0.6, validation_fraction=0.2, rng=0)
        assert sum(split.sizes) == len(dataset)
        assert split.sizes[0] == 18

    def test_split_disjoint(self, dataset):
        split = dataset.split(rng=0)
        ids = [t.trip_id for part in (split.train, split.validation, split.test)
               for t in part]
        assert len(ids) == len(set(ids))

    def test_split_deterministic(self, dataset):
        a = dataset.split(rng=5)
        b = dataset.split(rng=5)
        assert [t.trip_id for t in a.train] == [t.trip_id for t in b.train]

    def test_split_validation(self, dataset):
        with pytest.raises(ValueError):
            dataset.split(train_fraction=0.0)
        with pytest.raises(ValueError):
            dataset.split(train_fraction=0.9, validation_fraction=0.2)

    def test_empty_dataset_rejected(self, region_network):
        with pytest.raises(DataError):
            TrajectoryDataset(region_network, [])

    def test_foreign_network_rejected(self, region_network, tiny_network):
        from repro.graph import Path

        trip = Trip(0, 0, Path(tiny_network, [0, 1]))
        with pytest.raises(DataError):
            TrajectoryDataset(region_network, [trip])

    def test_save_load_roundtrip(self, dataset, tmp_path):
        path = tmp_path / "trips.json"
        dataset.save(path)
        restored = TrajectoryDataset.load(path)
        assert len(restored) == len(dataset)
        assert [t.path.vertices for t in restored] == [
            t.path.vertices for t in dataset
        ]

    def test_load_missing(self, tmp_path):
        from repro.errors import SerializationError

        with pytest.raises(SerializationError):
            TrajectoryDataset.load(tmp_path / "nope.json")
