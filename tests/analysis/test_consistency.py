"""Unit tests for the consistency oracles (C1, C2, quiescence, app state)."""

import pytest

from repro.analysis import (
    check_app_states,
    check_c1,
    check_no_dangling_receives,
    check_quiescent,
)
from repro.errors import ConsistencyViolation
from repro.testing import build_sim


def run_consistent_pair():
    sim, procs = build_sim(n=2, seed=3)
    sim.scheduler.at(1.0, lambda: procs[0].send_app_message(1, "m"))
    sim.scheduler.at(3.0, lambda: procs[1].initiate_checkpoint())
    sim.run()
    return sim, procs


def test_checkers_pass_on_consistent_run():
    sim, procs = run_consistent_pair()
    check_c1(procs.values())
    check_no_dangling_receives(procs.values())
    check_quiescent(procs.values())
    check_app_states(procs.values())


def test_c1_detects_orphan_receive():
    """Tamper with the sender's manifest: the checker must flag it."""
    sim, procs = run_consistent_pair()
    # The store's records are the ones the checkers read: tamper in place.
    procs[0].store.oldchkpt.meta["sent"] = []
    with pytest.raises(ConsistencyViolation, match="C1"):
        check_c1(procs.values())


def test_c2_detects_dangling_receive():
    sim, procs = run_consistent_pair()
    # Forcibly undo the send while keeping the receive: dangling.
    procs[0].ledger.sent[0].undone = True
    with pytest.raises(ConsistencyViolation, match="C2"):
        check_no_dangling_receives(procs.values())


def test_quiescence_detects_suspension():
    sim, procs = run_consistent_pair()
    procs[0].engine.send_suspended = True
    with pytest.raises(ConsistencyViolation, match="termination"):
        check_quiescent(procs.values())


def test_quiescence_detects_open_instance():
    sim, procs = run_consistent_pair()
    from repro.types import TreeId

    procs[0].engine.chkpt_commit_set = {TreeId(0, 9)}
    with pytest.raises(ConsistencyViolation, match="termination"):
        check_quiescent(procs.values())


def test_quiescence_skips_crashed():
    sim, procs = run_consistent_pair()
    procs[0].engine.send_suspended = True
    procs[0].crashed = True
    check_quiescent(procs.values())  # crashed processes exempt


def test_app_state_detects_drift():
    sim, procs = run_consistent_pair()
    procs[1].app.consumed += 1
    with pytest.raises(ConsistencyViolation, match="state"):
        check_app_states(procs.values())


def test_self_messages_ignored_by_c1():
    sim, procs = build_sim(n=1, seed=0)
    procs[0].send_app_message(0, "self")
    sim.run()
    procs[0].initiate_checkpoint()
    sim.run()
    check_c1(procs.values())
