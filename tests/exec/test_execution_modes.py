"""Service-level execution modes: parity, worker death, lifecycle, stats."""

import os
import signal
import threading
import time

import pytest

from repro.ranking import Strategy, TrainingDataConfig
from repro.serving import (
    ModelRegistry,
    RankingService,
    RankRequest,
    ServingConfig,
    ServingEngine,
)

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


def _rank_all(service, requests):
    """Answer ``requests`` through an engine over ``service``."""
    with ServingEngine(service, concurrency=2) as engine:
        return engine.rank_batch(requests, timeout=30.0)


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
                                             tmp_path, workload):
    """processes == inline, element-wise: same routing, same candidate
    orderings, identical scores.  A two-path batch cap splits every
    three-path candidate set across chunks."""
    inline = _service(exec_network, exec_ranker, tmp_path / "inline",
                      max_batch_size=2)
    pooled = _service(exec_network, exec_ranker, tmp_path / "pooled",
                      max_batch_size=2, execution="processes", workers=2)
    try:
        oracle = _signature(_rank_all(inline, workload))
        assert _signature(_rank_all(pooled, workload)) == oracle
        assert all(entry[2] is None for entry in oracle)
    finally:
        inline.close()
        pooled.close()


def test_cold_request_runs_on_the_pool(exec_network, exec_ranker,
                                       tmp_path):
    """A processes-mode service generates a cold request's candidates
    on a worker, through ``plane.candidates_for``, and answers exactly
    as the inline service does."""
    vertices = exec_network.vertex_ids()
    request = RankRequest(source=min(vertices), target=max(vertices))
    pooled_service = _service(exec_network, exec_ranker, tmp_path / "pooled",
                              execution="processes", workers=1)
    inline = _service(exec_network, exec_ranker, tmp_path / "inline")
    try:
        pooled = []
        candidates_for = pooled_service.plane.candidates_for
        pooled_service.plane.candidates_for = \
            lambda state: pooled.append(state) or candidates_for(state)
        response = pooled_service.rank(request)
        assert not response.candidate_cache_hit
        assert [state.request for state in pooled] == [request]
        assert _signature([response]) == _signature([inline.rank(request)])
        assert response.served_by == "model"
    finally:
        pooled_service.close()
        inline.close()


def test_forward_passes_run_in_the_parent_on_the_snapshot_model(
        exec_network, exec_ranker, tmp_path, workload):
    """Under processes mode the pool generates candidates, but every
    coalesced forward pass runs in the parent, on the active snapshot's
    own model object."""
    service = _service(exec_network, exec_ranker, tmp_path / "models",
                       execution="processes", workers=1,
                       score_cache_size=0)
    try:
        models = []
        score_many = service.scorer.score_many
        service.scorer.score_many = \
            lambda model, lists: models.append(model) \
            or score_many(model, lists)
        responses = _rank_all(service, workload[:4])
        assert {response.served_by for response in responses} == {"model"}
        active = service.registry.snapshot()
        assert models
        assert all(model is active.model for model in models)
    finally:
        service.close()


# ----------------------------------------------------------------------
# Stats shape
# ----------------------------------------------------------------------
def test_stats_expose_execution_block_only_when_armed(
        exec_network, exec_ranker, tmp_path, workload, proc_service):
    _rank_all(proc_service, workload[:4])
    stats = proc_service.stats()["execution"]
    assert stats["mode"] == "processes"
    assert stats["workers"] == 2
    assert stats["pool"]["workers"] == 2
    assert stats["pool"]["alive"] == 2
    assert set(stats) == {"mode", "workers", "pool"}

    inline = _service(exec_network, exec_ranker, tmp_path / "inline")
    try:
        # Dormant plane: the stats payload keeps its historical shape.
        assert "execution" not in inline.stats()
    finally:
        inline.close()


def test_exec_metrics_registered(proc_service):
    exported = proc_service.metrics.export()
    assert any(name.startswith("exec.") for name in exported)
    assert exported.get("exec.pool.workers") == 2


# ----------------------------------------------------------------------
# Worker death: a real SIGKILL before each dispatch
# ----------------------------------------------------------------------
def test_exec_worker_fault_kills_for_real_and_service_degrades(
        proc_service, exec_network, od_requests, monkeypatch):
    """Each dispatch first SIGKILLs a live worker.  Every request must
    still be answered (inline fallback / degradation), and the pool
    must respawn back to full strength."""
    # A workload the shared service has never seen: warm caches would
    # skip the pool entirely and no dispatch would kill anything.
    fresh = od_requests(exec_network, num_requests=6, num_pairs=3, seed=99)
    pool = proc_service.plane.pool
    before = pool.stats()["respawns"]
    dispatch = pool.submit

    def kill_then_dispatch(kind, payload):
        pool.kill_worker()
        return dispatch(kind, payload)

    with monkeypatch.context() as patch:
        patch.setattr(pool, "submit", kill_then_dispatch)
        responses = _rank_all(proc_service, fresh)
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
    followup = _rank_all(proc_service, fresh[:3])
    assert all(response.ok for response in followup)


# ----------------------------------------------------------------------
# Lifecycle: hot-swaps and teardown
# ----------------------------------------------------------------------
def test_hot_swaps_publish_nothing_and_each_version_serves_its_own(
        exec_network, exec_ranker, tmp_path, workload):
    """Scoring runs in the parent on the snapshot's own model, so
    hot-swaps publish nothing to the workers: after v1 -> v2 -> v3 and a
    straggler group still holding v2, every answer is model-served by
    its own version, and the breaker saw no failure."""
    service = _service(exec_network, exec_ranker, tmp_path / "models",
                       execution="processes", workers=1)
    try:
        for version in ("v1", "v2", "v3"):
            service.registry.publish(exec_ranker, version=version)
            if version == "v3":
                held = service.admit(workload[1])  # keeps v2's snapshot
            service.activate(version)
            response = _rank_all(service, workload[:1])[0]
            assert (response.served_by, response.model_version) \
                == ("model", version)
        service.score_states([service.prepare(held)])
        response = service.assemble(held)
        assert (response.served_by, response.model_version) \
            == ("model", "v2")
        assert service.breaker.as_dict()["window_failures"] == 0
    finally:
        service.close()


def test_scoring_two_snapshots_at_once_fails_no_group(
        exec_network, exec_ranker, tmp_path, workload):
    """Groups on a superseded snapshot and on the live one score side by
    side in the parent: the breaker sees no failure, and every answer
    is model-served by its version."""
    service = _service(exec_network, exec_ranker, tmp_path / "models",
                       execution="processes", workers=2,
                       score_cache_size=0)
    try:
        for version in ("v2", "v3"):
            service.registry.publish(exec_ranker, version=version)
        service.activate("v2")
        stragglers = [service.admit(request) for request in workload * 2]
        service.activate("v3")
        answers: dict[str, list] = {"v2": [], "v3": []}

        def straggle() -> None:
            for state in stragglers:
                service.score_states([service.prepare(state)])
                answers["v2"].append(service.assemble(state))

        def serve_live() -> None:
            for request in workload * 2:
                answers["v3"].append(service.rank(request))

        threads = [threading.Thread(target=straggle),
                   threading.Thread(target=serve_live)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        for version, responses in answers.items():
            assert len(responses) == 2 * len(workload)
            assert {(response.served_by, response.model_version)
                    for response in responses} == {("model", version)}
        assert service.breaker.as_dict()["window_failures"] == 0
    finally:
        service.close()


def test_service_close_stops_every_worker(exec_network, exec_ranker,
                                         tmp_path, workload):
    service = _service(exec_network, exec_ranker, tmp_path / "models",
                       execution="processes", workers=1)
    try:
        _rank_all(service, workload[:2])
        processes = [slot.process for slot in service.plane.pool._slots]
        assert all(process.is_alive() for process in processes)
    finally:
        service.close()
    assert not any(process.is_alive() for process in processes)
    # close() is idempotent and re-entrant with __exit__.
    service.close()


# ----------------------------------------------------------------------
# Deadlines: a request's budget never kills a worker
# ----------------------------------------------------------------------
def test_a_request_deadline_never_kills_a_healthy_worker(
        exec_network, exec_ranker, tmp_path):
    """A worker still enumerating when the request's budget runs out is
    slow, not hung.  The plane waits on it under its hang bound, as
    inline generation runs to completion, and the next stage boundary
    answers the request ``deadline_exceeded``: the pool records no
    timeout, kills nothing and respawns nothing.  A ``SIGSTOP`` lifted
    after 0.3 s stands in for an enumeration that outlasts a 50 ms
    budget."""
    vertices = exec_network.vertex_ids()
    request = RankRequest(source=min(vertices), target=max(vertices),
                          deadline_ms=50.0)
    service = _service(exec_network, exec_ranker, tmp_path / "models",
                       execution="processes", workers=1)
    pool = service.plane.pool
    worker = pool._slots[0].process
    resume = threading.Timer(0.3, os.kill, (worker.pid, signal.SIGCONT))
    os.kill(worker.pid, signal.SIGSTOP)
    resume.start()
    try:
        response = service.rank(request)
        stats = pool.stats()
        survived = pool._slots[0].process is worker and worker.is_alive()
    finally:
        resume.join(5.0)
        service.close()
    assert response.error_code == "deadline_exceeded"
    assert (stats["timeouts"], stats["respawns"], stats["failed"],
            stats["completed"]) == (0, 0, 0, 1)
    assert survived
