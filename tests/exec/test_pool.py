"""The worker pool: dispatch, candidate parity, and chaos recovery."""

import gc
import multiprocessing
import os
import signal
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.ranker import generate_candidates
from repro.errors import ExecError
from repro.exec import plane as plane_module
from repro.exec.plane import ExecutionPlane
from repro.exec.pool import WorkerPool
from repro.graph import csr_for, grid_network, north_jutland_like
from repro.ranking import Strategy, TrainingDataConfig
from repro.serving import RankRequest


@pytest.fixture(scope="module")
def plane(exec_network):
    """One warm two-worker plane shared by the non-destructive tests."""
    plane = ExecutionPlane(exec_network, workers=2)
    yield plane
    plane.close()


def _ping_until_recovered(pool, deadline_s: float = 30.0) -> None:
    """Ping until the respawned incarnation answers.

    A ping dispatched in the short window between a kill and the
    monitor's respawn is legitimately failed along with the dead
    worker's other tickets, so recovery is observed by retrying, not by
    racing the monitor.
    """
    deadline = time.monotonic() + deadline_s
    while True:
        try:
            assert pool.run("ping", None, timeout_s=5.0) == "pong"
            return
        except ExecError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)


def _wedge(pool, index: int = 0) -> None:
    """Stop a live worker with SIGSTOP: it stays alive but runs no job,
    so only the waiter's deadline or a kill can answer its tickets."""
    os.kill(pool._slots[index].process.pid, signal.SIGSTOP)


def _od_pairs(network):
    """A few well-separated OD pairs, deterministic per network."""
    ids = sorted(network.vertex_ids())
    return [(ids[0], ids[-1]), (ids[len(ids) // 3], ids[-2]),
            (ids[1], ids[2 * len(ids) // 3])]


# ----------------------------------------------------------------------
# Dispatch and parity
# ----------------------------------------------------------------------
def test_ping_roundtrip(plane):
    assert plane.pool.run("ping", None, timeout_s=30.0) == "pong"
    stats = plane.pool.stats()
    assert stats["workers"] == 2
    assert stats["alive"] == 2
    assert stats["completed"] >= 1


def test_candidates_parity_with_inline_generation(plane, exec_network,
                                                  exec_candidates):
    """Workers build the identical kernel from the same network, so
    candidate sets must match the parent's element-wise."""
    for source, target in _od_pairs(exec_network):
        inline = generate_candidates(exec_network, source, target,
                                     exec_candidates)
        remote = plane.pool.run(
            "candidates", (source, target, exec_candidates), timeout_s=30.0)
        assert [tuple(vertices) for vertices in remote] \
            == [path.vertices for path in inline]


def test_unknown_vertex_ships_back_as_exec_error(plane, exec_network,
                                                 exec_candidates):
    with pytest.raises(ExecError, match="failed 'candidates'"):
        plane.pool.run("candidates", (10 ** 9, 0, exec_candidates),
                       timeout_s=30.0)


def test_unknown_job_kind_fails_cleanly(plane):
    with pytest.raises(ExecError, match="unknown job kind"):
        plane.pool.run("frobnicate", None, timeout_s=30.0)


@pytest.mark.parametrize("kind", ["score", "hang"])
def test_workers_neither_score_nor_hang_on_request(plane, kind):
    """Workers generate candidates and run analytics tiles only:
    forward passes stay in the parent, and a test that needs a wedged
    worker stops it with SIGSTOP."""
    with pytest.raises(ExecError, match="unknown job kind"):
        plane.pool.run(kind, None, timeout_s=30.0)


def test_score_parity_is_bitwise(plane, exec_network, exec_ranker,
                                 exec_candidates):
    """The pool ships back bare vertex tuples and the parent scores the
    rebuilt paths on its own model: the same paths through the same
    arithmetic as inline, so bitwise-equal scores."""
    for source, target in _od_pairs(exec_network):
        state = SimpleNamespace(request=RankRequest(source=source,
                                                    target=target),
                                config=exec_candidates,
                                remaining_ms=lambda: None)
        remote = plane.candidates_for(state)
        inline = generate_candidates(exec_network, source, target,
                                     exec_candidates)
        np.testing.assert_array_equal(
            exec_ranker.model.score_paths(remote),
            exec_ranker.model.score_paths(inline))


@pytest.mark.parametrize("strategy", [Strategy.TKDI, Strategy.D_TKDI])
def test_candidates_parity_on_a_guided_size_network(strategy):
    """processes == inline at k=8 on a network of at least 128 vertices,
    where Yen's guidance once depended on the vertex count, with
    landmark tables built in the parent only: guidance depends on the
    network alone, so the workers, which build none, agree."""
    network = north_jutland_like(num_towns=4, seed=11)
    assert network.num_vertices >= 128
    config = TrainingDataConfig(strategy=strategy, k=8)
    csr_for(network).ensure_alt()
    ids = sorted(network.vertex_ids())
    pairs = [(ids[i], ids[-1 - 3 * i]) for i in range(0, 30, 3)]
    plane = ExecutionPlane(network, workers=2)
    try:
        tickets = [plane.pool.submit("candidates", (source, target, config))
                   for source, target in pairs]
        for (source, target), ticket in zip(pairs, tickets):
            inline = generate_candidates(network, source, target, config)
            assert [tuple(vertices) for vertices in ticket.wait(30.0)] \
                == [path.vertices for path in inline]
    finally:
        plane.close()


def test_candidates_for_waits_the_hang_bound_whatever_the_budget(
        plane, exec_network, exec_candidates, monkeypatch):
    """A request whose budget is already spent still waits on its worker
    under the hang bound, not the budget: the worker finishes, nothing
    times out, and the candidates are inline's."""
    waited = []
    submit = plane.pool.submit

    def recording_submit(kind, payload):
        ticket = submit(kind, payload)

        def wait(timeout_s=None):
            waited.append(timeout_s)
            return ticket.wait(timeout_s)

        return SimpleNamespace(wait=wait)

    monkeypatch.setattr(plane.pool, "submit", recording_submit)
    source, target = _od_pairs(exec_network)[0]
    state = SimpleNamespace(
        request=RankRequest(source=source, target=target, deadline_ms=1e-3),
        config=exec_candidates)
    timeouts = plane.pool.stats()["timeouts"]
    paths = plane.candidates_for(state)
    assert waited == [plane_module.DEFAULT_TIMEOUT_S]
    assert plane.pool.stats()["timeouts"] == timeouts
    inline = generate_candidates(exec_network, source, target,
                                 exec_candidates)
    assert [path.vertices for path in paths] \
        == [path.vertices for path in inline]


def test_closed_plane_leaves_no_worker_and_no_shm_entry(exec_network):
    """Worker processes are all the plane owns: closing it stops every
    one, and it never puts a block in ``/dev/shm``."""
    shm = "/dev/shm"
    before = set(os.listdir(shm)) if os.path.isdir(shm) else set()
    plane = ExecutionPlane(exec_network, workers=2)
    processes = [slot.process for slot in plane.pool._slots]
    assert plane.pool.run("ping", None, timeout_s=30.0) == "pong"
    plane.close()
    assert not any(process.is_alive() for process in processes)
    assert not set(processes) & set(multiprocessing.active_children())
    assert plane.stats()["pool"]["alive"] == 0
    assert plane.pool.closed
    plane.close()  # idempotent
    del plane, processes
    gc.collect()
    if os.path.isdir(shm):
        assert set(os.listdir(shm)) <= before


# ----------------------------------------------------------------------
# Chaos: death, hangs, failed warm-ups
# ----------------------------------------------------------------------
def test_worker_death_fails_inflight_and_respawns(exec_network):
    plane = ExecutionPlane(exec_network, workers=1)
    try:
        pool = plane.pool
        _wedge(pool)
        ticket = pool.submit("ping", None)
        pool.kill_worker(0)
        with pytest.raises(ExecError, match="died"):
            ticket.wait(30.0)
        # The monitor respawns the slot; the pool must serve again.
        _ping_until_recovered(pool)
        stats = pool.stats()
        assert stats["respawns"] >= 1
        assert stats["failed"] >= 1
        assert stats["alive"] == 1
    finally:
        plane.close()


def test_submits_racing_a_respawn_all_resolve_promptly(exec_network):
    """Jobs dispatched while the monitor replaces a dead worker either
    fail with the dead incarnation or run on the new one: none may be
    left in the dead worker's queue to wait out a fallback deadline."""
    plane = ExecutionPlane(exec_network, workers=1)
    try:
        pool = plane.pool
        pool.wait_ready()
        tickets = []
        respawn = pool._spawn

        def spawn_after_a_racing_submit(slot):
            # Lands after the monitor failed the dead worker's jobs and
            # before the queue swap: the narrowest window of the race.
            tickets.append(pool.submit("ping", None))
            respawn(slot)

        pool._spawn = spawn_after_a_racing_submit
        pool.kill_worker(0)
        # A paced burst around the monitor's scan and the respawn,
        # bounded so the dead worker's pipe never fills.
        respawned_at = None
        while len(tickets) < 300:
            tickets.append(pool.submit("ping", None))
            if pool.stats()["respawns"] >= 1:
                respawned_at = respawned_at or time.monotonic()
                if time.monotonic() - respawned_at > 0.05:
                    break
            time.sleep(0.001)
        deadline = time.monotonic() + 5.0
        while not all(ticket.done for ticket in tickets) \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        stranded = [ticket.job_id for ticket in tickets if not ticket.done]
        assert stranded == [], f"{len(stranded)} jobs never resolved"
        for ticket in tickets:
            try:
                assert ticket.wait(0) == "pong"
            except ExecError as exc:
                assert "died" in str(exc)
        assert pool.stats()["timeouts"] == 0
    finally:
        plane.close()


def test_warm_ups_between_early_deaths_keep_the_slot(exec_network):
    """The warm-up death cap counts consecutive failed warm-ups: a slot
    that warms up between three early deaths is still respawned."""
    plane = ExecutionPlane(grid_network(6, 6), workers=1)
    try:
        pool = plane.pool
        pool.wait_ready()
        slot = pool._slots[0]
        respawn = pool._spawn
        doomed = []

        def spawn_and_kill_before_ready(slot):
            respawn(slot)
            if doomed:
                doomed.pop()
                slot.process.kill()

        pool._spawn = spawn_and_kill_before_ready
        for cycle in range(3):
            generation = slot.generation
            doomed.append(True)
            pool.kill_worker(0)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                process = slot.process
                if process is None or (
                        slot.generation == generation + 2
                        and slot.ready.is_set() and process.is_alive()):
                    break
                time.sleep(0.02)
            assert pool.stats()["alive"] == 1, f"slot lost in cycle {cycle}"
            assert pool.run("ping", None, timeout_s=5.0) == "pong"
        assert pool._init_errors == []
    finally:
        plane.close()


def test_kills_the_pool_delivers_during_warm_up_keep_the_slot():
    """Only a worker that dies on its own counts toward the warm-up
    death cap: three respawns killed by ``kill_worker`` before they are
    ready (as an armed ``exec.worker`` fault does under load) leave the
    slot alive."""
    plane = ExecutionPlane(grid_network(6, 6), workers=1)
    try:
        pool = plane.pool
        pool.wait_ready()
        slot = pool._slots[0]
        respawn = pool._spawn
        kills = [0]

        def spawn_and_kill_before_ready(slot):
            respawn(slot)
            if kills[0] < 3:
                kills[0] += 1
                pool.kill_worker(slot.index)

        pool._spawn = spawn_and_kill_before_ready
        pool.kill_worker(0)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            process = slot.process
            if process is None or (kills[0] == 3 and slot.ready.is_set()
                                   and process.is_alive()):
                break
            time.sleep(0.02)
        assert slot.process is not None, pool._init_errors
        assert pool.stats()["alive"] == 1
        assert pool.run("ping", None, timeout_s=5.0) == "pong"
        assert pool._init_errors == []
    finally:
        plane.close()


def test_waiter_deadline_kills_hung_worker_and_recovers(exec_network):
    plane = ExecutionPlane(exec_network, workers=1)
    try:
        pool = plane.pool
        _wedge(pool)
        ticket = pool.submit("ping", None)
        with pytest.raises(ExecError, match="timed out"):
            ticket.wait(0.5)
        assert pool.stats()["timeouts"] == 1
        _ping_until_recovered(pool)
    finally:
        plane.close()


def test_wait_ready_raises_once_a_slot_is_abandoned():
    """A worker that dies at every warm-up gets its slot abandoned after
    three deaths; ``wait_ready`` raises then, not when its timeout runs
    out.  With no network, the kernel build fails in the child."""
    pool = WorkerPool(None, workers=1)
    try:
        began = time.monotonic()
        with pytest.raises(ExecError, match="slot abandoned.*TypeError"):
            pool.wait_ready(30.0)
        assert time.monotonic() - began < 15.0
        assert pool._slots[0].process is None
    finally:
        pool.close()


def test_plane_with_failing_warmups_raises_and_leaves_no_worker():
    """The plane closes its pool when warm-up fails, so a constructor
    that raises leaves no worker process behind."""
    before = set(multiprocessing.active_children())
    began = time.monotonic()
    with pytest.raises(ExecError, match="slot abandoned.*TypeError"):
        ExecutionPlane(None, workers=2)
    assert time.monotonic() - began < 15.0
    assert [child.name for child in multiprocessing.active_children()
            if child not in before] == []


def test_submit_after_close_raises(exec_network):
    plane = ExecutionPlane(exec_network, workers=1)
    plane.close()
    with pytest.raises(ExecError, match="closed"):
        plane.pool.submit("ping", None)
