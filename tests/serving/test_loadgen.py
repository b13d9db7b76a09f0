"""Workload generation: Zipf OD mixes and open-loop Poisson arrivals."""

import numpy as np
import pytest

from repro.serving import (
    ServingEngine,
    WorkloadConfig,
    generate_timed_workload,
    generate_workload,
    poisson_arrivals,
    replay_open_loop,
    run_engine_workload,
)


class TestPoissonArrivals:
    def test_monotone_and_positive(self):
        arrivals = poisson_arrivals(200, qps=100.0, rng=0)
        assert arrivals.shape == (200,)
        assert np.all(np.diff(arrivals) >= 0.0)
        assert arrivals[0] > 0.0

    def test_rate_converges_to_target(self):
        arrivals = poisson_arrivals(5000, qps=250.0, rng=1)
        observed = len(arrivals) / arrivals[-1]
        assert observed == pytest.approx(250.0, rel=0.1)

    def test_deterministic_per_seed(self):
        a = poisson_arrivals(50, qps=10.0, rng=3)
        b = poisson_arrivals(50, qps=10.0, rng=3)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_arrivals(0, qps=10.0)
        with pytest.raises(ValueError):
            poisson_arrivals(10, qps=0.0)


class TestTimedWorkload:
    def test_same_od_mix_as_untimed(self, tiny_network):
        config = WorkloadConfig(num_requests=40, num_hotspots=5,
                                arrival_rate_qps=100.0)
        plain = generate_workload(tiny_network, config, rng=5)
        timed = generate_timed_workload(tiny_network, config, rng=5)
        assert [(t.request.source, t.request.target) for t in timed] == \
            [(r.source, r.target) for r in plain]

    def test_arrivals_attached_and_increasing(self, tiny_network):
        config = WorkloadConfig(num_requests=30, num_hotspots=5,
                                arrival_rate_qps=1000.0)
        timed = generate_timed_workload(tiny_network, config, rng=2)
        arrivals = [t.arrival_s for t in timed]
        assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))
        assert arrivals[-1] > 0.0

    def test_no_rate_means_back_to_back(self, tiny_network):
        config = WorkloadConfig(num_requests=10, num_hotspots=5)
        timed = generate_timed_workload(tiny_network, config, rng=2)
        assert all(t.arrival_s == 0.0 for t in timed)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(arrival_rate_qps=0.0)


class TestEngineDrivers:
    def test_closed_loop_summary(self, service, tiny_network):
        workload = generate_workload(
            tiny_network, WorkloadConfig(num_requests=30, num_hotspots=5),
            rng=1)
        with ServingEngine(service, concurrency=4,
                           flush_deadline_ms=2.0) as engine:
            summary = run_engine_workload(engine, workload, concurrency=6)
        assert summary["requests"] == 30
        assert summary["served_by"]["error"] == 0
        assert summary["throughput_qps"] > 0.0
        assert summary["occupancy"]["requests_coalesced"] == 30
        assert set(summary["latency_ms"]) == {"mean", "p50", "p95"}

    def test_open_loop_replay(self, service, tiny_network):
        timed = generate_timed_workload(
            tiny_network,
            WorkloadConfig(num_requests=25, num_hotspots=5,
                           arrival_rate_qps=2000.0),
            rng=1)
        with ServingEngine(service, concurrency=4,
                           flush_deadline_ms=2.0) as engine:
            summary = replay_open_loop(engine, timed)
        assert summary["requests"] == 25
        assert summary["served_by"]["error"] == 0
        assert summary["offered_qps"] > 0.0
        assert summary["occupancy"]["flushes"] > 0

    def test_open_loop_time_scale_validation(self, service, tiny_network):
        with pytest.raises(ValueError):
            replay_open_loop(None, [], time_scale=0.0)


class TestMultiRegionWorkload:
    @pytest.fixture(scope="class")
    def partition(self, region_network):
        from repro.graph import voronoi_partition

        return voronoi_partition(region_network, 3, rng=0)

    def _config(self, **overrides):
        defaults = dict(num_requests=200, num_hotspots=18,
                        min_hop_distance=200.0, cross_shard_fraction=0.3)
        defaults.update(overrides)
        return WorkloadConfig(**defaults)

    def test_cross_shard_fraction_realised(self, region_network, partition):
        workload = generate_workload(region_network, self._config(),
                                     rng=3, partition=partition)
        cross = sum(1 for r in workload
                    if not partition.same_shard(r.source, r.target))
        assert 0.15 <= cross / len(workload) <= 0.45

    def test_zero_cross_fraction_stays_in_shard(self, region_network,
                                                partition):
        workload = generate_workload(
            region_network, self._config(cross_shard_fraction=0.0),
            rng=3, partition=partition)
        assert all(partition.same_shard(r.source, r.target)
                   for r in workload)

    def test_multiple_shards_receive_traffic(self, region_network,
                                             partition):
        workload = generate_workload(region_network, self._config(),
                                     rng=3, partition=partition)
        owners = {partition.shard_of(r.source) for r in workload}
        assert len(owners) >= 2

    def test_region_zipf_skews_toward_first_shards(self, region_network,
                                                   partition):
        flat = generate_workload(
            region_network,
            self._config(cross_shard_fraction=0.0, region_zipf_exponent=1.0),
            rng=3, partition=partition)
        skewed = generate_workload(
            region_network,
            self._config(cross_shard_fraction=0.0, region_zipf_exponent=4.0),
            rng=3, partition=partition)

        def shard0_share(workload):
            return sum(1 for r in workload
                       if partition.shard_of(r.source) == 0) / len(workload)

        assert shard0_share(skewed) > shard0_share(flat)

    def test_deterministic_per_seed(self, region_network, partition):
        first = generate_workload(region_network, self._config(), rng=9,
                                  partition=partition)
        second = generate_workload(region_network, self._config(), rng=9,
                                   partition=partition)
        assert first == second

    def test_timed_workload_shares_the_od_mix(self, region_network,
                                              partition):
        config = self._config(arrival_rate_qps=500.0)
        untimed = generate_workload(region_network, config, rng=4,
                                    partition=partition)
        timed = generate_timed_workload(region_network, config, rng=4,
                                        partition=partition)
        assert [t.request for t in timed] == untimed
        arrivals = [t.arrival_s for t in timed]
        assert arrivals == sorted(arrivals)

    def test_request_ids_are_sequential(self, region_network, partition):
        workload = generate_workload(region_network, self._config(),
                                     rng=3, partition=partition)
        assert [r.request_id for r in workload] == list(range(len(workload)))

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(cross_shard_fraction=1.5)
        with pytest.raises(ValueError):
            WorkloadConfig(region_zipf_exponent=0.0)
