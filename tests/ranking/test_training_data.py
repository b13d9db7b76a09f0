"""Tests for TkDI / D-TkDI training-data generation."""

import itertools

import pytest

from repro.errors import DataError
from repro.graph import (Path, grid_network, length_cost, weighted_jaccard,
                         yen_k_shortest_paths)
from repro.ranking import training_data
from repro.ranking import (
    RankedCandidate,
    RankingQuery,
    Strategy,
    TrainingDataConfig,
    generate_queries,
)
from repro.trajectories import Trip, generate_fleet


@pytest.fixture(scope="module")
def fleet(region_network):
    _, trips = generate_fleet(region_network, num_drivers=6, trips_per_driver=4,
                              rng=3)
    return trips


class TestStrategyEnum:
    def test_from_name(self):
        assert Strategy.from_name("TkDI") is Strategy.TKDI
        assert Strategy.from_name("d-tkdi") is Strategy.D_TKDI

    def test_unknown(self):
        with pytest.raises(KeyError):
            Strategy.from_name("best-paths")


class TestConfig:
    def test_defaults(self):
        config = TrainingDataConfig()
        assert config.strategy is Strategy.D_TKDI
        assert config.k == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingDataConfig(k=0)
        with pytest.raises(ValueError):
            TrainingDataConfig(diversity_threshold=2.0)
        with pytest.raises(ValueError):
            TrainingDataConfig(k=10, examine_limit=5)


class TestRankedCandidate:
    def test_score_bounds(self, tiny_network):
        path = Path(tiny_network, [0, 1])
        with pytest.raises(DataError):
            RankedCandidate(path=path, score=1.5, generation_rank=0)


class TestGenerateQueries:
    def test_tkdi_candidates_are_topk(self, region_network, fleet):
        config = TrainingDataConfig(strategy=Strategy.TKDI, k=4)
        queries = generate_queries(fleet[:3], config)
        for query in queries:
            trip = next(t for t in fleet if t.trip_id == query.trip_id)
            expected = yen_k_shortest_paths(region_network, trip.source,
                                            trip.target, 4)
            assert query.paths() == expected

    def test_scores_are_weighted_jaccard(self, region_network, fleet):
        config = TrainingDataConfig(strategy=Strategy.TKDI, k=3)
        queries = generate_queries(fleet[:3], config)
        for query in queries:
            for candidate in query.candidates:
                expected = weighted_jaccard(candidate.path, query.trajectory_path)
                assert candidate.score == pytest.approx(expected)

    def test_dtkdi_respects_threshold(self, fleet):
        config = TrainingDataConfig(strategy=Strategy.D_TKDI, k=4,
                                    diversity_threshold=0.7, examine_limit=100)
        queries = generate_queries(fleet[:4], config)
        for query in queries:
            for a, b in itertools.combinations(query.paths(), 2):
                assert weighted_jaccard(a, b) <= 0.7 + 1e-9

    def test_query_metadata(self, fleet):
        queries = generate_queries(fleet[:2], TrainingDataConfig(k=3))
        for query in queries:
            trip = next(t for t in fleet if t.trip_id == query.trip_id)
            assert query.driver_id == trip.driver_id
            assert query.source == trip.source
            assert query.target == trip.target

    def test_generation_ranks_sequential(self, fleet):
        queries = generate_queries(fleet[:2], TrainingDataConfig(k=4))
        for query in queries:
            assert [c.generation_rank for c in query.candidates] == \
                list(range(len(query)))

    def test_min_candidates_filter(self, tiny_network):
        # tiny network: very few diverse paths exist for adjacent vertices.
        trip = Trip(0, 0, Path(tiny_network, [0, 1]))
        config = TrainingDataConfig(strategy=Strategy.D_TKDI, k=5,
                                    diversity_threshold=0.05, examine_limit=20)
        with pytest.raises(DataError):
            generate_queries([trip], config, min_candidates=5)

    def test_min_candidates_validation(self, fleet):
        with pytest.raises(ValueError):
            generate_queries(fleet[:1], min_candidates=0)

    def test_best_candidate(self, fleet):
        queries = generate_queries(fleet[:2], TrainingDataConfig(k=4))
        for query in queries:
            best = query.best_candidate()
            assert best.score == max(query.scores())

    def test_query_len_and_paths_align(self, fleet):
        queries = generate_queries(fleet[:2], TrainingDataConfig(k=4))
        for query in queries:
            assert len(query) == len(query.paths()) == len(query.scores())

    def test_dtkdi_produces_lower_pairwise_overlap_than_tkdi(self, fleet):
        """The paper's core observation: D-TkDI candidate sets are more
        diverse than plain top-k sets."""
        tkdi = generate_queries(fleet, TrainingDataConfig(
            strategy=Strategy.TKDI, k=4))
        dtkdi = generate_queries(fleet, TrainingDataConfig(
            strategy=Strategy.D_TKDI, k=4, diversity_threshold=0.8,
            examine_limit=100))

        def mean_pairwise(queries):
            values = []
            for query in queries:
                for a, b in itertools.combinations(query.paths(), 2):
                    values.append(weighted_jaccard(a, b))
            return sum(values) / len(values)

        assert mean_pairwise(dtkdi) < mean_pairwise(tkdi)


class TestCandidatesOncePerOD:
    """Trips that share an OD share one candidate enumeration per call;
    the labels, ranks and drop rule stay per trip."""

    CONFIG = TrainingDataConfig(strategy=Strategy.D_TKDI, k=5,
                                diversity_threshold=0.3, examine_limit=20)
    ODS = [(0, 63), (7, 56), (0, 9), (9, 18)]

    @pytest.fixture(scope="class")
    def trips(self):
        # Two networks with the same vertex ids but different lengths: at
        # min_candidates=3, OD (0, 63) is dropped on the first and kept on
        # the second, so a shared entry would show.
        networks = (grid_network(8, 8, seed=7), grid_network(8, 8, seed=8))
        trips = []
        for round_ in range(3):
            for network in networks:
                for source, target in self.ODS:
                    path = yen_k_shortest_paths(network, source, target, 3)[round_]
                    trips.append(Trip(len(trips), driver_id=len(trips) % 5,
                                      path=path))
        return trips

    @staticmethod
    def per_trip_reference(trips, config, min_candidates):
        queries = []
        for trip in trips:
            paths = training_data._candidates_for(trip, config, length_cost,
                                                  weighted_jaccard)
            if len(paths) < min_candidates:
                continue
            queries.append((trip.trip_id, trip.driver_id, trip.path.vertices,
                            [(p.vertices, weighted_jaccard(p, trip.path), rank)
                             for rank, p in enumerate(paths)]))
        return queries

    def test_equals_per_trip_reference(self, trips):
        queries = generate_queries(trips, self.CONFIG, min_candidates=3)
        got = [(q.trip_id, q.driver_id, q.trajectory_path.vertices,
                [(c.path.vertices, c.score, c.generation_rank)
                 for c in q.candidates]) for q in queries]
        want = self.per_trip_reference(trips, self.CONFIG, min_candidates=3)
        assert got == want
        kept = {(id(q.trajectory_path.network), q.source, q.target)
                for q in queries}
        first, second = {id(t.path.network): None for t in trips}
        assert (first, 0, 63) not in kept and (second, 0, 63) in kept

    def test_enumerates_each_od_once_and_never_across_networks(
            self, trips, monkeypatch):
        calls = []
        original = training_data._candidates_for

        def counting(trip, *args):
            calls.append((trip.path.network, trip.source, trip.target))
            return original(trip, *args)

        monkeypatch.setattr(training_data, "_candidates_for", counting)
        queries = generate_queries(trips, self.CONFIG, min_candidates=3)
        distinct = {(id(t.path.network), t.source, t.target) for t in trips}
        assert len(calls) == len(distinct) == 2 * len(self.ODS)
        assert len({(id(n), s, t) for n, s, t in calls}) == len(calls)
        for query in queries:
            assert all(c.path.network is query.trajectory_path.network
                       for c in query.candidates)
