"""The membership plane: epoch-numbered views and the sim front doors.

Covers the :class:`repro.membership.MembershipPlane` state machine itself,
then the full join/leave/handoff path through a running simulation — the
engines' peer updates, departed-peer recruitment exclusion, obligation
handoff to a successor, and the network's departed-destination salvage.
"""

import pytest

from repro import tracekinds as T
from repro.analysis import check_c1, check_c1_from_trace
from repro.core.process import CheckpointProcess
from repro.errors import SimulationError
from repro.membership import MembershipPlane
from repro.testing import build_sim


# ----------------------------------------------------------------------
# The plane's state machine
# ----------------------------------------------------------------------
def test_seed_is_silent_and_joins_bump_the_epoch_twice():
    plane = MembershipPlane()
    views = []
    plane.subscribe(views.append)
    plane.seed(0)
    plane.seed(1)
    assert plane.epoch == 0 and views == []  # golden-trace bit-identity
    plane.begin_join(2)
    plane.complete_join(2)
    assert plane.epoch == 2
    assert [v.epoch for v in views] == [1, 2]
    assert views[0].joining == (2,) and 2 not in views[0]
    assert views[1].joining == () and 2 in views[1]


def test_leave_moves_the_pid_to_departed_and_refuses_reuse():
    plane = MembershipPlane([0, 1, 2])
    plane.begin_leave(2)
    assert plane.view.leaving == (2,)
    plane.complete_leave(2)
    assert not plane.is_member(2)
    assert plane.is_departed(2)
    with pytest.raises(SimulationError, match="cannot be reused"):
        plane.begin_join(2)
    with pytest.raises(SimulationError, match="cannot be reused"):
        plane.seed(2)


def test_invalid_transitions_are_rejected():
    plane = MembershipPlane([0])
    with pytest.raises(SimulationError, match="already a member"):
        plane.begin_join(0)
    with pytest.raises(SimulationError, match="no join in progress"):
        plane.complete_join(5)
    with pytest.raises(SimulationError, match="not a member"):
        plane.begin_leave(9)


# ----------------------------------------------------------------------
# Sim front doors
# ----------------------------------------------------------------------
def test_join_makes_the_new_process_a_full_participant():
    sim, procs = build_sim(n=3, seed=7)
    sim.scheduler.at(2.0, lambda: sim.join_node(CheckpointProcess(3, None)))
    sim.scheduler.at(3.0, lambda: sim.nodes[3].send_app_message(0, "hello"))
    sim.scheduler.at(4.0, lambda: procs[0].send_app_message(3, "back"))
    sim.scheduler.at(6.0, lambda: sim.nodes[3].initiate_checkpoint())
    sim.run(until=40.0)
    assert sim.membership.epoch == 2
    joins = sim.trace.index.by_kind(T.K_JOIN)
    assert [e.pid for e in joins] == [3]
    # Every pre-existing engine learned the new peer.
    for pid in (0, 1, 2):
        assert 3 in procs[pid].engine.peers
    # The joiner's checkpoint instance recruited its correspondent and
    # committed — it is a first-class protocol member.
    commits = {e.pid for e in sim.trace.index.by_kind(T.K_CHKPT_COMMIT)}
    assert {0, 3} <= commits
    check_c1(sim.nodes.values())


def test_leave_hands_obligations_to_the_successor():
    sim, procs = build_sim(n=3, seed=7)
    sim.scheduler.at(1.0, lambda: procs[1].send_app_message(0, "m"))
    sim.scheduler.at(3.0, lambda: procs[1].initiate_checkpoint())
    sim.scheduler.at(10.0, lambda: sim.leave_node(1, successor=0))
    sim.run(until=40.0)
    leaves = sim.trace.index.by_kind(T.K_LEAVE)
    assert [e.pid for e in leaves] == [1]
    assert leaves[0].fields["successor"] == 0
    # The successor adopted P1's obligations (decision log and commit-set
    # membership travel in the handoff message).
    handoffs = sim.trace.index.by_kind(T.K_HANDOFF)
    assert [e.pid for e in handoffs] == [0]
    assert 1 in procs[0].engine.adopted
    # P1 is gone from the live membership and every survivor's peer set.
    assert 1 not in sim.nodes
    for pid in (0, 2):
        assert 1 not in procs[pid].engine.peers
        assert 1 in procs[pid].engine.departed_peers
    check_c1(sim.nodes.values())


def test_leave_mid_instance_does_not_wedge_the_round():
    # P2 is recruited into P0's checkpoint instance, then departs before
    # the 2PC settles; the round must still close (drop-child semantics),
    # and later instances must not recruit the departed pid.
    sim, procs = build_sim(n=4, seed=3)
    sim.scheduler.at(1.0, lambda: procs[2].send_app_message(0, "dep"))
    sim.scheduler.at(3.0, lambda: procs[0].initiate_checkpoint())
    sim.scheduler.at(3.6, lambda: sim.leave_node(2, successor=1))
    sim.scheduler.at(10.0, lambda: procs[0].send_app_message(1, "post"))
    sim.scheduler.at(12.0, lambda: procs[1].initiate_checkpoint())
    sim.run(until=60.0)
    # Theorem 1 still holds: nothing left open anywhere.
    for proc in sim.nodes.values():
        assert not proc.chkpt_commit_set
        assert not proc.roll_restart_set
    # The post-departure instance committed without touching P2.
    commits = sim.trace.index.by_kind(T.K_CHKPT_COMMIT)
    assert any(e.pid == 1 and e.time > 12.0 for e in commits)
    assert not any(e.pid == 2 and e.time > 4.0 for e in commits)
    check_c1_from_trace(sim.trace)


def test_traffic_to_a_departed_pid_is_salvaged_not_an_error():
    sim, procs = build_sim(n=3, seed=7)
    sim.scheduler.at(2.0, lambda: sim.leave_node(1, successor=0))
    # P2 has not heard (it has: view fan-out is synchronous) — force the
    # stale-destination path straight through the network front door.
    sim.scheduler.at(4.0, lambda: procs[2].send_app_message(1, "stale"))
    sim.run(until=20.0)
    assert sim.network.salvaged_departed >= 1


def test_departed_pid_cannot_rejoin_the_simulation():
    sim, procs = build_sim(n=3, seed=7)
    sim.scheduler.at(2.0, lambda: sim.leave_node(1, successor=0))
    sim.run(until=10.0)
    with pytest.raises(SimulationError, match="cannot be reused"):
        sim.join_node(CheckpointProcess(1, None))
