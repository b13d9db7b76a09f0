"""The worker pool: dispatch, candidate parity, and chaos recovery."""

import os
import signal
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.ranker import generate_candidates
from repro.errors import ExecError
from repro.exec.plane import ExecutionPlane
from repro.exec.pool import WorkerPool
from repro.exec.shm import create_segment, list_repro_segments
from repro.graph import grid_network
from repro.graph.csr import csr_for
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
    """Workers run the identical kernel over the shared CSR arrays, so
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


# ----------------------------------------------------------------------
# The plane's one shared segment
# ----------------------------------------------------------------------
def test_plane_segment_is_the_network_csr(plane, exec_network):
    """The segment the workers attach is keyed by the network's CSR
    kernel, and the plane reports that key and its size."""
    assert plane.segment.key == csr_for(exec_network).shared_key()
    assert plane.segment.name in list_repro_segments()
    assert plane.stats()["segment"] == {"key": plane.segment.key,
                                        "bytes": plane.segment.nbytes}
    assert plane.segment.nbytes > 0


def test_plane_publishes_one_segment_and_close_unlinks_it(exec_network):
    before = set(list_repro_segments())
    plane = ExecutionPlane(exec_network, workers=1)
    try:
        assert set(list_repro_segments()) - before == {plane.segment.name}
    finally:
        plane.close()
    assert plane.segment.name not in list_repro_segments()
    assert plane.pool.closed
    plane.close()  # idempotent


# ----------------------------------------------------------------------
# Chaos: death, hangs, staleness
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


def test_stale_csr_key_rejected_at_worker_warmup(exec_network):
    """A worker handed a segment whose key does not match what it was
    told to expect must refuse to install it — warmup fails loudly
    instead of silently routing on stale hot-state."""
    arrays, meta = csr_for(exec_network).shared_payload()
    segment = create_segment("csr:stale-test", arrays, meta)
    pool = None
    try:
        pool = WorkerPool(exec_network, workers=1, csr_name=segment.name,
                          csr_key="csr:" + "0" * 32)
        with pytest.raises(ExecError, match="StaleSegmentError"):
            pool.wait_ready(3.0)
    finally:
        if pool is not None:
            pool.close()
        segment.close()


def test_wait_ready_raises_once_a_slot_is_abandoned(exec_network):
    """A worker that dies at every warm-up gets its slot abandoned after
    three deaths; ``wait_ready`` raises then, not when its timeout runs
    out."""
    arrays, meta = csr_for(exec_network).shared_payload()
    segment = create_segment("csr:abandon-test", arrays, meta)
    pool = None
    try:
        pool = WorkerPool(exec_network, workers=1, csr_name=segment.name,
                          csr_key="csr:" + "0" * 32)
        began = time.monotonic()
        with pytest.raises(ExecError, match="slot abandoned.*StaleSegment"):
            pool.wait_ready(30.0)
        assert time.monotonic() - began < 15.0
        assert pool._slots[0].process is None
    finally:
        if pool is not None:
            pool.close()
        segment.close()


def test_submit_after_close_raises(exec_network):
    plane = ExecutionPlane(exec_network, workers=1)
    plane.close()
    with pytest.raises(ExecError, match="closed"):
        plane.pool.submit("ping", None)
