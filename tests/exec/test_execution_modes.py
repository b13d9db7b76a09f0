"""Service-level execution modes: parity, chaos, lifecycle, stats."""

import time

import pytest

from repro.exec.shm import list_repro_segments
from repro.ranking import Strategy, TrainingDataConfig
from repro.serving import ModelRegistry, RankingService, ServingConfig

CANDIDATES = TrainingDataConfig(strategy=Strategy.TKDI, k=3)


def _service(network, ranker, root, **execution) -> RankingService:
    registry = ModelRegistry(root, network)
    registry.publish(ranker, activate=True)
    return RankingService(network, registry,
                          ServingConfig(candidates=CANDIDATES, **execution))


@pytest.fixture(scope="module")
def workload(exec_network, od_requests):
    return od_requests(exec_network, num_requests=12, num_pairs=4, seed=3)


@pytest.fixture(scope="module")
def proc_service(exec_network, exec_ranker, tmp_path_factory):
    """One processes-mode service (two workers) shared by the
    non-destructive tests in this module."""
    service = _service(exec_network, exec_ranker,
                       tmp_path_factory.mktemp("proc-models"),
                       execution="processes", workers=2)
    yield service
    service.close()


def _signature(responses):
    return [
        (response.served_by, response.model_version, response.error,
         [(result.path.vertices, result.score)
          for result in response.results])
        for response in responses
    ]


# ----------------------------------------------------------------------
# Parity
# ----------------------------------------------------------------------
def test_config_validates_execution_mode():
    with pytest.raises(ValueError, match="execution"):
        ServingConfig(candidates=CANDIDATES, execution="gpu")
    with pytest.raises(ValueError, match="workers"):
        ServingConfig(candidates=CANDIDATES, workers=0)


def test_all_modes_serve_identical_responses(exec_network, exec_ranker,
                                             tmp_path, workload,
                                             proc_service):
    """processes == threads == inline, element-wise: same routing, same
    candidate orderings, identical scores."""
    inline = _service(exec_network, exec_ranker, tmp_path / "inline")
    threads = _service(exec_network, exec_ranker, tmp_path / "threads",
                       execution="threads", workers=2)
    try:
        oracle = _signature(inline.rank_batch(workload))
        assert _signature(threads.rank_batch(workload)) == oracle
        assert _signature(proc_service.rank_batch(workload)) == oracle
        assert all(entry[2] is None for entry in oracle)
    finally:
        threads.close()
        inline.close()


# ----------------------------------------------------------------------
# Stats shape
# ----------------------------------------------------------------------
def test_stats_expose_execution_block_only_when_armed(
        exec_network, exec_ranker, tmp_path, workload, proc_service):
    proc_service.rank_batch(workload[:4])
    stats = proc_service.stats()["execution"]
    assert stats["mode"] == "processes"
    assert stats["workers"] == 2
    assert stats["pool"]["workers"] == 2
    assert stats["pool"]["alive"] == 2
    assert stats["arena"]["segments"] >= 1
    assert any(key.startswith("csr:") for key in stats["arena"]["keys"])

    inline = _service(exec_network, exec_ranker, tmp_path / "inline")
    try:
        # Dormant plane: the stats payload keeps its historical shape.
        assert "execution" not in inline.stats()
    finally:
        inline.close()

    threads = _service(exec_network, exec_ranker, tmp_path / "threads",
                       execution="threads")
    try:
        # Threads mode has no worker pool, only the mode marker.
        assert threads.plane is None
        assert threads.stats()["execution"] == {"mode": "threads"}
    finally:
        threads.close()


def test_exec_metrics_registered(proc_service):
    exported = proc_service.metrics.export()
    assert any(name.startswith("exec.") for name in exported)
    assert exported.get("exec.pool.workers") == 2


# ----------------------------------------------------------------------
# Chaos: the exec.worker injection point
# ----------------------------------------------------------------------
def test_exec_worker_fault_kills_for_real_and_service_degrades(
        proc_service, exec_network, od_requests):
    """An ``exec.worker`` error firing SIGKILLs a live worker.  Every
    request must still be answered (inline fallback / degradation), and
    the pool must respawn back to full strength."""
    # A workload the shared service has never seen: warm caches would
    # skip the pool entirely and the injection point would never fire.
    fresh = od_requests(exec_network, num_requests=6, num_pairs=3, seed=99)
    before = proc_service.plane.pool.stats()["respawns"]
    proc_service.arm_faults("exec.worker:error", seed=1)
    try:
        responses = proc_service.rank_batch(fresh)
    finally:
        proc_service.disarm_faults()
    assert all(response.ok for response in responses)
    # A job that raced the respawn fails with the dead worker; none
    # waits out the plane's fallback deadline.
    assert proc_service.plane.pool.stats()["timeouts"] == 0
    deadline = time.monotonic() + 30.0
    while True:
        stats = proc_service.plane.pool.stats()
        if stats["respawns"] > before and stats["alive"] == 2:
            break
        assert time.monotonic() < deadline, (
            f"pool did not recover: {stats}")
        time.sleep(0.05)
    # And the recovered pool still serves.
    followup = proc_service.rank_batch(fresh[:3])
    assert all(response.ok for response in followup)


# ----------------------------------------------------------------------
# Lifecycle: weight pruning and teardown
# ----------------------------------------------------------------------
def test_deactivate_unlinks_weight_segments(exec_network, exec_ranker,
                                            tmp_path, workload):
    service = _service(exec_network, exec_ranker, tmp_path / "models",
                       execution="processes", workers=1)
    try:
        responses = service.rank_batch(workload[:4])
        assert all(response.ok for response in responses)
        keys = service.plane.arena.keys()
        if service.plane.scoring_enabled:
            assert any(key.startswith("weights:") for key in keys)
        service.registry.deactivate()
        keys = service.plane.arena.keys()
        assert not any(key.startswith("weights:") for key in keys)
        # The CSR segment stays — it belongs to the graph, not a model.
        assert any(key.startswith("csr:") for key in keys)
    finally:
        service.close()


def test_service_close_unlinks_every_segment(exec_network, exec_ranker,
                                             tmp_path, workload):
    before = set(list_repro_segments())
    service = _service(exec_network, exec_ranker, tmp_path / "models",
                       execution="processes", workers=1)
    try:
        service.rank_batch(workload[:2])
        created = set(list_repro_segments()) - before
        assert created, "processes mode should have published segments"
    finally:
        service.close()
    assert set(list_repro_segments()) & created == set()
    # close() is idempotent and re-entrant with __exit__.
    service.close()
