"""The shard plane: router policy, sharded registry, per-shard serving."""

import threading

import pytest

from repro.errors import ConfigError, ServingError
from repro.graph import (
    GraphPartition,
    grid_network,
    partition_network,
    voronoi_partition,
)
from repro.serving import (
    ModelRegistry,
    RankingService,
    RankRequest,
    ResilienceConfig,
    ServingConfig,
    ServingEngine,
    ShardedRegistry,
    ShardRouter,
)
from repro.serving.sharding import split_budget

#: tiny_network split down the middle: the top row {0, 1, 2} and the
#: bottom row {3, 4, 5} (cut edges: 0-3, 1-4, 2-5 in both directions).
TOP, BOTTOM = {0, 1, 2}, {3, 4, 5}


@pytest.fixture
def tiny_partition(tiny_network) -> GraphPartition:
    assignment = {vid: (0 if vid in TOP else 1)
                  for vid in tiny_network.vertex_ids()}
    return GraphPartition(tiny_network, assignment)


@pytest.fixture
def sharded_registry(tmp_path, tiny_network, tiny_partition,
                     make_ranker) -> ShardedRegistry:
    registry = ShardedRegistry(tmp_path / "shards", tiny_network,
                               tiny_partition)
    registry.publish(make_ranker(tiny_network, seed=1), version="v0001",
                     activate=True)
    return registry


@pytest.fixture
def sharded_service(tiny_network, sharded_registry,
                    candidates_config) -> RankingService:
    return RankingService(tiny_network, sharded_registry,
                          ServingConfig(candidates=candidates_config,
                                        candidate_cache_size=64,
                                        score_cache_size=256))


ALL_PAIRS = [(s, t) for s in range(6) for t in range(6) if s != t]


class TestShardRouter:
    def test_same_shard_routes_to_source_shard(self, tiny_network,
                                               tiny_partition):
        router = ShardRouter(tiny_network, tiny_partition)
        route = router.route(0, 2)
        assert route.shard == route.target_shard == 0
        assert not route.cross

    def test_exact_mode_keeps_full_network(self, tiny_network,
                                           tiny_partition):
        router = ShardRouter(tiny_network, tiny_partition)
        assert router.route(0, 2).graph is tiny_network
        assert not router.route(0, 2).local

    def test_local_mode_uses_subnetwork(self, tiny_network, tiny_partition):
        router = ShardRouter(tiny_network, tiny_partition,
                             local_candidates=True)
        route = router.route(3, 5)
        assert route.local
        assert sorted(route.graph.vertex_ids()) == sorted(BOTTOM)

    def test_cross_shard_corridor_is_stitched_union(self, tiny_network,
                                                    tiny_partition):
        router = ShardRouter(tiny_network, tiny_partition)
        route = router.route(0, 5)
        assert route.cross and route.shard == 0 and route.target_shard == 1
        assert sorted(route.graph.vertex_ids()) == [0, 1, 2, 3, 4, 5]
        assert route.graph.has_edge(1, 4)  # a cut edge survives stitching

    def test_cross_shard_fallback_policy_uses_full_network(
            self, tiny_network, tiny_partition):
        router = ShardRouter(tiny_network, tiny_partition,
                             cross_policy="fallback")
        route = router.route(0, 5)
        assert route.cross and route.graph is tiny_network and not route.local

    def test_bad_policy_rejected(self, tiny_network, tiny_partition):
        with pytest.raises(ConfigError):
            ShardRouter(tiny_network, tiny_partition, cross_policy="teleport")

    def test_stale_partition_rejected(self, tiny_network, tiny_partition):
        import copy

        mutated = copy.deepcopy(tiny_network)
        partition = GraphPartition(
            mutated, {vid: (0 if vid in TOP else 1)
                      for vid in mutated.vertex_ids()})
        mutated.add_edge(3, 1)
        with pytest.raises(ConfigError):
            ShardRouter(mutated, partition)

    def test_mid_serving_mutation_fails_routes_loudly(self, tiny_network,
                                                      tiny_partition):
        """Memoised shard graphs cannot invalidate implicitly, so a
        post-construction mutation must fail every route (and thereby
        every request) instead of serving a closed road."""
        import copy

        mutated = copy.deepcopy(tiny_network)
        partition = GraphPartition(
            mutated, {vid: (0 if vid in TOP else 1)
                      for vid in mutated.vertex_ids()})
        router = ShardRouter(mutated, partition)
        assert not router.route(0, 2).cross
        mutated.remove_edge(0, 2)
        with pytest.raises(ServingError, match="stale"):
            router.route(0, 2)


class TestSplitBudget:
    def test_proportional_with_floor(self):
        shares = split_budget(100, [60, 30, 10])
        assert shares == [60, 30, 10]
        # A dominant shard's share is trimmed so the floor of one entry
        # per remaining shard still fits inside the total.
        assert split_budget(4, [1000, 1, 1]) == [2, 1, 1]

    def test_never_exceeds_total_when_budget_covers_floors(self):
        assert sum(split_budget(10, [1, 1, 1, 1])) <= 10
        assert sum(split_budget(7, [97, 1, 1, 1])) <= 7

    def test_floor_of_one_entry_per_shard_wins_over_tiny_budgets(self):
        shares = split_budget(2, [5, 5, 5])
        assert shares == [1, 1, 1]  # sum == len(weights) > total, by design

    def test_validation(self):
        with pytest.raises(ConfigError):
            split_budget(0, [1])
        with pytest.raises(ConfigError):
            split_budget(10, [0, 0])


class TestShardedRegistry:
    def test_per_shard_roots_and_publish_all(self, sharded_registry):
        for shard_id in sharded_registry.shard_ids():
            registry = sharded_registry.registry(shard_id)
            assert registry.versions() == ["v0001"]
            assert f"shard-{shard_id:02d}" in str(registry.root)
        assert sharded_registry.active_versions() == {0: "v0001", 1: "v0001"}

    def test_activate_subset(self, tmp_path, tiny_network, tiny_partition,
                             make_ranker):
        registry = ShardedRegistry(tmp_path / "s", tiny_network,
                                   tiny_partition)
        registry.publish(make_ranker(tiny_network, seed=1), version="v0001")
        registry.activate("v0001", shards=[1])
        assert registry.active_versions() == {0: None, 1: "v0001"}

    def test_shared_mode_backs_all_shards_with_one_registry(
            self, tmp_path, tiny_network, tiny_partition, make_ranker):
        base = ModelRegistry(tmp_path / "one", tiny_network)
        base.publish(make_ranker(tiny_network, seed=1), version="v0001")
        shared = ShardedRegistry.shared(base, tiny_partition)
        assert shared.registry(0) is shared.registry(1) is base
        actives = shared.activate("v0001")
        # One load serves every shard: identical snapshot objects.
        assert actives[0] is actives[1]
        assert shared.publish(make_ranker(tiny_network, seed=2)) == "v0002"
        assert base.versions() == ["v0001", "v0002"]

    def test_unknown_shard_rejected(self, sharded_registry):
        with pytest.raises(ServingError):
            sharded_registry.registry(7)

    def test_stats_cover_every_shard(self, sharded_registry):
        stats = sharded_registry.stats()
        assert set(stats["per_shard"]) == {"shard-00", "shard-01"}
        assert stats["partition"]["num_shards"] == 2
        assert stats["per_shard"]["shard-00"] == {"nodes": 3,
                                                  "boundary_nodes": 3}


class TestShardedService:
    def test_same_responses_as_unsharded_service(self, tiny_network,
                                                 sharded_service, tmp_path,
                                                 make_ranker,
                                                 candidates_config):
        """Exact mode: every pair — same- and cross-shard — identical."""
        registry = ModelRegistry(tmp_path / "flat", tiny_network)
        registry.publish(make_ranker(tiny_network, seed=1), version="v0001",
                         activate=True)
        flat = RankingService(tiny_network, registry,
                              ServingConfig(candidates=candidates_config))
        requests = [RankRequest(source=s, target=t, request_id=i)
                    for i, (s, t) in enumerate(ALL_PAIRS)]
        mine = sharded_service.rank_batch(requests)
        theirs = flat.rank_batch(requests)
        for a, b in zip(mine, theirs):
            assert a.served_by == b.served_by == "model"
            assert [r.path.vertices for r in a.results] == \
                [r.path.vertices for r in b.results]
            assert [r.score for r in a.results] == pytest.approx(
                [r.score for r in b.results], abs=1e-6)

    def test_responses_tagged_with_owning_shard(self, sharded_service):
        same = sharded_service.rank(RankRequest(source=3, target=5))
        cross = sharded_service.rank(RankRequest(source=4, target=0))
        assert same.shard == 1
        assert cross.shard == 1  # source shard owns cross-shard queries

    def test_scoring_batches_coalesce_per_shard(self, sharded_service):
        requests = [RankRequest(source=0, target=2),
                    RankRequest(source=3, target=5)]
        sharded_service.rank_batch(requests)
        assert sharded_service.lane(0).scorer.batches_run == 1
        assert sharded_service.lane(1).scorer.batches_run == 1

    def test_per_shard_caches_isolated(self, sharded_service):
        sharded_service.rank(RankRequest(source=0, target=2))
        sharded_service.rank(RankRequest(source=0, target=2))
        lane0 = sharded_service.lane(0)
        lane1 = sharded_service.lane(1)
        assert lane0.candidate_cache.stats.hits == 1
        assert lane1.candidate_cache.stats.lookups == 0

    def test_deactivated_shard_degrades_only_its_requests(
            self, sharded_service):
        sharded_service.sharded.deactivate(shards=[1])
        top = sharded_service.rank(RankRequest(source=0, target=2))
        bottom = sharded_service.rank(RankRequest(source=3, target=5))
        assert top.served_by == "model"
        assert bottom.served_by == "fallback"

    def test_killed_lane_trips_only_its_own_breaker(
            self, tiny_network, sharded_registry, candidates_config):
        """Every group scoring call on shard 1 fails: its breaker opens
        and its later requests degrade to the fallback, while shard 0's
        breaker never trips and its requests stay model-served."""
        service = RankingService(tiny_network, sharded_registry, ServingConfig(
            candidates=candidates_config,
            resilience=ResilienceConfig(
                retry_attempts=0, breaker_window=4, breaker_min_samples=2,
                breaker_cooldown_ms=60_000.0)))
        service.arm_faults("score@1:error")
        requests = [RankRequest(source=s, target=t) for s, t in ALL_PAIRS]
        first = [service.rank(request) for request in requests]
        second = [service.rank(request) for request in requests]
        assert all(r.ok for r in first + second)
        assert {r.served_by for r in first + second if r.shard == 0} \
            == {"model"}
        assert {(r.served_by, r.error_code) for r in second if r.shard == 1} \
            == {("fallback", "breaker_open")}
        assert (service.breakers[0].state, service.breakers[0].trips) \
            == ("closed", 0)
        assert (service.breakers[1].state, service.breakers[1].trips) \
            == ("open", 1)

    def test_unknown_vertex_is_request_error(self, sharded_service):
        response = sharded_service.rank(RankRequest(source=0, target=999))
        assert response.served_by == "error"

    def test_local_mode_retries_unreachable_on_full_network(
            self, tiny_network, tmp_path, make_ranker, candidates_config):
        """Shard {0, 2} only has the one-way 0->2 motorway internally, so
        a local 2->0 query must fall back to full-network enumeration —
        and thereby match the unsharded answer exactly."""
        assignment = {0: 0, 2: 0, 1: 1, 3: 1, 4: 1, 5: 1}
        partition = GraphPartition(tiny_network, assignment)
        sharded = ShardedRegistry(tmp_path / "s", tiny_network, partition)
        sharded.publish(make_ranker(tiny_network, seed=1), version="v0001",
                        activate=True)
        service = RankingService(
            tiny_network, sharded, ServingConfig(candidates=candidates_config),
            router=ShardRouter(tiny_network, partition,
                               local_candidates=True))
        registry = ModelRegistry(tmp_path / "flat", tiny_network)
        registry.publish(make_ranker(tiny_network, seed=1), version="v0001",
                         activate=True)
        flat = RankingService(tiny_network, registry,
                              ServingConfig(candidates=candidates_config))
        mine = service.rank(RankRequest(source=2, target=0))
        theirs = flat.rank(RankRequest(source=2, target=0))
        assert mine.served_by == "model"
        assert [r.path.vertices for r in mine.results] == \
            [r.path.vertices for r in theirs.results]

    def test_traffic_split_quotas_apply_on_shard_lanes(
            self, tiny_network, sharded_registry, candidates_config):
        """A traffic split segments every shard lane's score cache — the
        split-isolation guarantee cannot silently disappear on the
        shard plane."""
        service = RankingService(
            tiny_network, sharded_registry,
            ServingConfig(candidates=candidates_config,
                          traffic_split={"v0001": 0.9, "v0002": 0.1}))
        for lane in service.lanes():
            assert lane.score_cache.has_quotas
        service.rank(RankRequest(source=0, target=2))
        stats = service.stats()
        assert set(stats["score_cache_splits"]) <= {"shard-00", "shard-01"}

    def test_score_cache_size_zero_disables_memoisation(
            self, tiny_network, sharded_registry, candidates_config):
        """The documented scoring-isolation knob holds on the shard
        plane: no lane gets a score cache."""
        service = RankingService(
            tiny_network, sharded_registry,
            ServingConfig(candidates=candidates_config, score_cache_size=0))
        service.rank(RankRequest(source=0, target=2))
        service.rank(RankRequest(source=0, target=2))
        assert service.lane(0).score_cache is None
        assert service.lane(0).scorer.batches_run == 2  # no memoised skip

    def test_warm_up_fills_per_shard_caches(self, sharded_service):
        warmed = sharded_service.warm_up(
            [RankRequest(source=0, target=2), RankRequest(source=3, target=5)])
        assert warmed == 2
        assert sharded_service.lane(0).candidate_cache.stats.misses == 1
        assert sharded_service.lane(1).candidate_cache.stats.misses == 1
        assert sharded_service.counters["requests"].value == 0  # off the books

    def test_stats_expose_shard_plane(self, sharded_service):
        sharded_service.rank(RankRequest(source=0, target=5))
        stats = sharded_service.stats()
        assert stats["active_version"] == {"shard-00": "v0001",
                                           "shard-01": "v0001"}
        per_shard = stats["sharding"]["per_shard"]
        assert per_shard["shard-00"]["requests"]["requests"] == 1
        assert per_shard["shard-00"]["requests"]["cross_shard"] == 1

    def test_router_requires_sharded_registry(self, tiny_network, registry,
                                              tiny_partition):
        router = ShardRouter(tiny_network, tiny_partition)
        with pytest.raises(ServingError):
            RankingService(tiny_network, registry, router=router)

    def test_router_partition_must_match_registry(self, tiny_network,
                                                  sharded_registry):
        foreign = GraphPartition(
            tiny_network, {vid: (0 if vid < 2 else 1)
                           for vid in tiny_network.vertex_ids()})
        router = ShardRouter(tiny_network, foreign)
        with pytest.raises(ServingError, match="different partitions"):
            RankingService(tiny_network, sharded_registry, router=router)


class _PoisonScorer:
    """Stands in for one shard's BatchingScorer and always fails."""

    def __init__(self):
        self.batches_run = 0
        self.paths_scored = 0

    def score_many(self, model, candidate_lists, version=None):
        raise ServingError("shard scorer poisoned")

    def score_paths(self, model, paths, version=None):
        raise ServingError("shard scorer poisoned")


class TestShardedEngine:
    def test_engine_matches_sync_sharded_service(self, tiny_network,
                                                 sharded_service):
        requests = [RankRequest(source=s, target=t, request_id=i)
                    for i, (s, t) in enumerate(ALL_PAIRS)]
        expected = [sharded_service.rank(request) for request in requests]
        with ServingEngine(sharded_service, concurrency=4,
                           flush_deadline_ms=5.0) as engine:
            actual = engine.rank_batch(requests)
        for mine, theirs in zip(actual, expected):
            assert mine.served_by == theirs.served_by
            assert mine.shard == theirs.shard
            assert [r.path.vertices for r in mine.results] == \
                [r.path.vertices for r in theirs.results]

    def test_occupancy_reports_per_shard_groups(self, sharded_service):
        requests = [RankRequest(source=s, target=t, request_id=i)
                    for i, (s, t) in enumerate(ALL_PAIRS)]
        with ServingEngine(sharded_service, concurrency=4,
                           flush_deadline_ms=5.0) as engine:
            engine.rank_batch(requests)
            occupancy = engine.stats()["engine"]["occupancy"]
        assert set(occupancy["groups"]) == {"shard-00", "shard-01"}
        assert all(entry["mean_requests_per_flush"] > 0
                   for entry in occupancy["groups"].values())

    def test_close_drains_with_one_shard_poisoned_mid_flush(
            self, tiny_network, sharded_registry, candidates_config):
        """close() must flush the parked batch even when one shard's
        scoring raises; degradation stays confined to that shard's
        group, and every ticket is answered."""
        sharded_service = RankingService(
            tiny_network, sharded_registry,
            ServingConfig(candidates=candidates_config,
                          max_batch_size=10_000))
        sharded_service.lane(1).scorer = _PoisonScorer()
        engine = ServingEngine(sharded_service, concurrency=2,
                               flush_deadline_ms=60_000.0)
        requests = [RankRequest(source=0, target=2, request_id=1),
                    RankRequest(source=3, target=5, request_id=2),
                    RankRequest(source=1, target=0, request_id=3),
                    RankRequest(source=4, target=3, request_id=4)]
        tickets = [engine.submit(request) for request in requests]
        # Let the workers park the prepared states; with a one-minute
        # deadline and a huge size trigger nothing flushes until close.
        deadline = threading.Event()
        for _ in range(200):
            if all(ticket.state is not None for ticket in tickets):
                break
            deadline.wait(0.005)
        engine.close()
        responses = [ticket.wait(timeout=5.0) for ticket in tickets]
        by_shard = {0: [], 1: []}
        for response in responses:
            by_shard[response.shard].append(response)
        assert [r.served_by for r in by_shard[0]] == ["model", "model"]
        assert [r.served_by for r in by_shard[1]] == ["fallback", "fallback"]
        assert all("poisoned" in (r.error or "") for r in by_shard[1])


CACHE_STATS_KEYS = {"evictions", "hit_rate", "hits", "misses"}


class TestLaneCaches:
    """The service carves its own cache budgets over the shard lanes,
    to the capacities the registry used to carve."""

    @pytest.fixture
    def grid(self):
        network = grid_network(6, 6, seed=3)
        partition = GraphPartition(
            network, {vid: (0 if vid < 10 else 1)
                      for vid in network.vertex_ids()})
        assert [shard.size for shard in partition.shards] == [10, 26]
        return network, partition

    def service(self, grid, tmp_path, make_ranker, **config):
        network, partition = grid
        base = ModelRegistry(tmp_path / "grid", network)
        base.publish(make_ranker(network, seed=1), version="v0001")
        service = RankingService(
            network, ShardedRegistry.shared(base, partition),
            ServingConfig(**config))
        service.activate("v0001")
        return service

    @pytest.mark.parametrize("sizes, capacities", [
        ((1024, 8192), [(284, 2275), (739, 5916)]),
        ((100, 50), [(27, 13), (72, 36)]),
        ((2, 2), [(1, 1), (1, 1)]),
        ((37, 0), [(10, None), (26, None)]),
    ], ids=["defaults", "100-50", "floors", "no-score-cache"])
    def test_lane_capacities_match_the_registry_carve(
            self, grid, tmp_path, make_ranker, candidates_config, sizes,
            capacities):
        candidate_size, score_size = sizes
        service = self.service(grid, tmp_path, make_ranker,
                               candidates=candidates_config,
                               candidate_cache_size=candidate_size,
                               score_cache_size=score_size)
        assert [(lane.candidate_cache._cache.capacity,
                 None if lane.score_cache is None
                 else lane.score_cache.capacity)
                for lane in service.lanes()] == capacities
        assert sum(lane.candidate_cache._cache.capacity
                   for lane in service.lanes()) <= max(candidate_size, 2)

    def test_zero_score_cache_size_leaves_no_lane_a_score_cache(
            self, grid, tmp_path, make_ranker, candidates_config):
        service = self.service(grid, tmp_path, make_ranker,
                               candidates=candidates_config,
                               score_cache_size=0)
        service.rank(RankRequest(source=0, target=35))
        assert all(lane.score_cache is None for lane in service.lanes())
        per_shard = service.stats()["sharding"]["per_shard"]
        assert all(entry["score_cache"] == {"disabled": True}
                   for entry in per_shard.values())

    def test_a_split_segments_every_lane(self, grid, tmp_path, make_ranker,
                                         candidates_config):
        service = self.service(grid, tmp_path, make_ranker,
                               candidates=candidates_config,
                               traffic_split={"v0001": 0.5, "v0002": 0.5})
        for lane in service.lanes():
            assert [version for version, _ in lane.score_cache.quotas] \
                == ["v0001", "v0002"]

    def test_two_services_over_one_registry_keep_their_own_caches(
            self, grid, tmp_path, make_ranker, candidates_config):
        first = self.service(grid, tmp_path, make_ranker,
                             candidates=candidates_config)
        second = RankingService(first.network, first.sharded,
                                ServingConfig(candidates=candidates_config))
        first.rank(RankRequest(source=0, target=35))
        assert second.lane(0).candidate_cache is not \
            first.lane(0).candidate_cache
        assert second.stats()["candidate_cache"]["misses"] == 0

    def test_sharding_stats_keep_their_key_set(self, grid, tmp_path,
                                               make_ranker,
                                               candidates_config):
        """The keys (and per-shard key order) the section had while the
        ShardedRegistry held the caches."""
        service = self.service(grid, tmp_path, make_ranker,
                               candidates=candidates_config)
        service.rank_batch([RankRequest(source=0, target=35),
                            RankRequest(source=12, target=30)])
        sharding = service.stats()["sharding"]
        assert set(sharding) == {"partition", "per_shard", "routing"}
        assert set(sharding["partition"]) == {
            "balance", "boundary_nodes", "cut_edges", "cut_fraction",
            "num_shards", "shard_sizes"}
        assert set(sharding["routing"]) == {
            "certified", "certify_corridors", "corridor_routes",
            "same_shard", "unreachable", "widened"}
        assert set(sharding["per_shard"]) == {"shard-00", "shard-01"}
        for entry in sharding["per_shard"].values():
            assert list(entry) == ["nodes", "boundary_nodes",
                                   "candidate_cache", "score_cache",
                                   "requests", "scoring"]
            assert set(entry["candidate_cache"]) == CACHE_STATS_KEYS
            assert set(entry["score_cache"]) == CACHE_STATS_KEYS
            assert set(entry["requests"]) == {
                "requests", "cross_shard", "cross_shard_fraction", "model",
                "fallback", "error"}
            assert set(entry["scoring"]) == {"batches_run", "cache_hits",
                                             "paths_scored"}


class TestAccountingEdges:
    def test_routing_failure_not_charged_to_shard_zero(self, sharded_service):
        sharded_service.rank(RankRequest(source=0, target=999))
        assert "shard.shard-00.requests" not in \
            sharded_service.metrics.export()
        sharded_service.rank(RankRequest(source=0, target=2))
        assert sharded_service.metrics.export()[
            "shard.shard-00.requests"] == 1

    def test_budget_below_shard_count_rejected(self, tiny_network,
                                               sharded_registry):
        with pytest.raises(ConfigError, match="even one entry"):
            RankingService(tiny_network, sharded_registry,
                           ServingConfig(candidate_cache_size=1))
        with pytest.raises(ConfigError, match="even one entry"):
            RankingService(tiny_network, sharded_registry,
                           ServingConfig(score_cache_size=1))
        RankingService(tiny_network, sharded_registry,
                       ServingConfig(score_cache_size=0))  # disabled is fine


class TestCorridorCertification:
    def test_certified_route_keeps_corridor(self, tiny_network,
                                            tiny_partition):
        router = ShardRouter(tiny_network, tiny_partition,
                             certify_corridors=True)
        route = router.route(0, 5)
        # tiny's two shards union to the whole network, so no exterior
        # gateway exists and the certificate proves the corridor exact.
        assert route.cross
        assert router.route_counters == {
            "same_shard": 0, "corridor_routes": 1, "certified": 1,
            "widened": 0, "unreachable": 0}
        router.route(0, 2)
        assert router.route_counters["same_shard"] == 1

    def test_widened_route_falls_back_to_full_network(self):
        """The forced-widening path: a 3-shard grid has cross-shard
        pairs whose optimum may legitimately leave the corridor; those
        must be served from the full network, uncertified pairs from
        the corridor, and the counters must record both verdicts."""
        network = grid_network(12, 12, seed=19)
        partition = partition_network(network, 3, method="bfs", rng=2)
        router = ShardRouter(network, partition, certify_corridors=True)
        widened = certified = None
        for source in sorted(partition.shard(0).nodes):
            for target in sorted(partition.shard(1).nodes):
                before = dict(router.route_counters)
                route = router.route(source, target)
                if router.route_counters["widened"] > before["widened"]:
                    widened = widened or route
                elif router.route_counters["certified"] > \
                        before["certified"]:
                    certified = certified or route
                if widened is not None and certified is not None:
                    break
            else:
                continue
            break
        assert widened is not None, "sweep never widened a route"
        assert certified is not None, "sweep never certified a route"
        # Widened: exactness beats locality — the full graph serves,
        # and ``local`` is False so no-path needs no second retry.
        assert widened.graph is network
        assert not widened.local
        # Certified: the small corridor stays, provably exact.
        assert certified.local
        assert certified.graph is partition.corridor(0, 1)

    def test_service_stats_surface_routing_verdicts(
            self, tiny_network, tiny_partition, sharded_registry,
            candidates_config):
        service = RankingService(
            tiny_network, sharded_registry,
            ServingConfig(candidates=candidates_config),
            router=ShardRouter(tiny_network, tiny_partition,
                               certify_corridors=True))
        service.rank(RankRequest(source=0, target=5))
        service.rank(RankRequest(source=0, target=2))
        routing = service.stats()["sharding"]["routing"]
        assert routing["certify_corridors"] is True
        assert routing["corridor_routes"] == 1
        assert routing["certified"] == 1
        assert routing["same_shard"] == 1
