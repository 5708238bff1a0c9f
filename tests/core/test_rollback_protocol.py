"""Scenario tests for the rollback half of the algorithm (b5-b8)."""

from repro.analysis import (
    check_app_states,
    check_no_dangling_receives,
    check_quiescent,
    reconstruct_trees,
)
from repro import tracekinds as T
from repro.net import AdversarialReorderDelay
from repro.testing import build_sim


def at(sim, t, fn):
    sim.scheduler.at(t, fn)


def test_solo_rollback_renumbers_interval():
    sim, procs = build_sim(n=2)
    at(sim, 1.0, lambda: procs[0].initiate_rollback())
    sim.run()
    assert procs[0].ledger.n == 2  # rollback point numbered
    assert not procs[0].comm_suspended
    assert sim.trace.index.last_of(T.K_RESTART, pid=0).new_interval == 2


def test_receiver_of_undone_message_rolls_back():
    sim, procs = build_sim(n=2)
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "m"))
    at(sim, 3.0, lambda: procs[0].initiate_rollback())
    sim.run()
    assert procs[1].app.consumed == 0  # receive undone
    rolls = sim.trace.index.by_kind(T.K_ROLLBACK)
    assert {e.pid for e in rolls} == {0, 1}
    check_no_dangling_receives(procs.values())
    check_app_states(procs.values())


def test_rollback_cascades_transitively():
    sim, procs = build_sim(n=3)
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "a"))
    at(sim, 2.0, lambda: procs[1].send_app_message(2, "b"))
    at(sim, 4.0, lambda: procs[0].initiate_rollback())
    sim.run()
    rolls = sim.trace.index.by_kind(T.K_ROLLBACK)
    assert {e.pid for e in rolls} == {0, 1, 2}
    trees = reconstruct_trees(sim.trace)
    tree = next(t for t in trees.values() if t.kind == "rollback")
    assert tree.edges == [(0, 1), (1, 2)]
    check_no_dangling_receives(procs.values())


def test_uninvolved_process_not_rolled():
    sim, procs = build_sim(n=3)
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "a"))
    at(sim, 1.0, lambda: procs[2].send_app_message(1, "c"))
    at(sim, 4.0, lambda: procs[0].initiate_rollback())
    sim.run()
    rolls = sim.trace.index.by_kind(T.K_ROLLBACK)
    assert 2 not in {e.pid for e in rolls}
    # P1 rolled back, undoing BOTH receives (it restored an older state);
    # but P2's send survives, so the system stays consistent: P2's message
    # was undone at P1 as collateral, which C2 permits (no dangling receive).
    check_no_dangling_receives(procs.values())


def test_rollback_to_newchkpt_preserves_instance():
    """b6 branch 1: all doomed receives postdate newchkpt -> instance lives."""
    sim, procs = build_sim(n=4)
    # A chain P3 -> P0 -> P1 makes P1's instance deep (slow to decide).
    at(sim, 0.5, lambda: procs[3].send_app_message(0, "x"))
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "m"))
    at(sim, 3.0, lambda: procs[1].initiate_checkpoint())
    # After P1's tentative exists (t=3.0) but before the deep instance
    # decides (~t=5), P1 receives a message that its sender then undoes.
    at(sim, 3.2, lambda: procs[2].send_app_message(1, "late"))
    at(sim, 3.8, lambda: procs[2].initiate_rollback())
    sim.run()
    # P1's checkpoint instance still committed (rolled to newchkpt).
    assert procs[1].store.oldchkpt.seq == 2
    roll = [e for e in sim.trace.index.by_kind(T.K_ROLLBACK) if e.pid == 1]
    assert roll and roll[0].fields["target"] == "newchkpt"
    check_no_dangling_receives(procs.values())
    check_quiescent(procs.values())


def test_rollback_to_oldchkpt_aborts_instance():
    """b6 branch 2: a doomed receive predates newchkpt -> abort the shared
    tentative and fall back to oldchkpt."""
    sim, procs = build_sim(n=3)
    at(sim, 1.0, lambda: procs[2].send_app_message(1, "early"))
    # P1 checkpoints, covering the receive; P2 is recruited but its tentative
    # is still pending when P2 detects an error and rolls back to... we
    # instead roll back the *other* sender P2 before the instance completes.
    at(sim, 2.0, lambda: procs[1].initiate_checkpoint())
    at(sim, 2.2, lambda: procs[2].initiate_rollback())
    sim.run()
    check_no_dangling_receives(procs.values())
    check_app_states(procs.values())
    check_quiescent(procs.values())


class ScriptedDelay:
    """Per-channel queue of predetermined delays (then a 0.2 default)."""

    def __init__(self, delays):
        self.delays = {k: list(v) for k, v in delays.items()}

    def sample(self, rng, src, dst):
        queue = self.delays.get((src, dst))
        return queue.pop(0) if queue else 0.2


def test_in_transit_undone_message_discarded():
    """The discard filter drops a message whose send was undone while it
    was still in flight: the roll_req (and even the whole rollback 2PC)
    completes before the slow normal message finally lands."""
    # Channel 0->1 delivery order: fast normal, SLOW normal, roll_req,
    # restart; everything else takes the 0.2 default.
    sim, procs = build_sim(
        n=2, delay=ScriptedDelay({(0, 1): [0.2, 9.0, 0.2, 0.2]})
    )
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "fast"))
    at(sim, 1.5, lambda: procs[0].send_app_message(1, "slow"))
    at(sim, 2.0, lambda: procs[0].initiate_rollback())
    sim.run()
    discards = [
        e for e in sim.trace.index.by_kind(T.K_DISCARD)
        if e.fields.get("reason") == "undone_in_transit"
    ]
    assert discards, "the in-transit undone message must be discarded"
    check_no_dangling_receives(procs.values())
    check_app_states(procs.values())


def test_concurrent_rollbacks_both_terminate():
    sim, procs = build_sim(n=4)
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "a"))
    at(sim, 1.0, lambda: procs[3].send_app_message(2, "b"))
    at(sim, 3.0, lambda: procs[0].initiate_rollback())
    at(sim, 3.0, lambda: procs[3].initiate_rollback())
    sim.run()
    check_quiescent(procs.values())
    check_no_dangling_receives(procs.values())
    assert all(not p.roll_restart_set for p in procs.values())


def test_comm_suspension_discards_incoming():
    """While awaiting restart, incoming normal messages are discarded."""
    sim, procs = build_sim(n=3)
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "a"))
    at(sim, 3.0, lambda: procs[0].initiate_rollback())
    # P2 fires a message timed to land while P1 is roll-suspended.
    at(sim, 3.4, lambda: procs[2].send_app_message(1, "during"))
    sim.run()
    discards = [
        e for e in sim.trace.index.by_kind(T.K_DISCARD)
        if e.fields.get("reason") == "roll_suspended" and e.pid == 1
    ]
    assert discards
    check_app_states(procs.values())


def test_output_queue_cleared_by_rollback():
    sim, procs = build_sim(n=2)
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "m"))
    at(sim, 3.0, lambda: procs[1].initiate_checkpoint())      # suspends P1 sends
    at(sim, 3.1, lambda: procs[1].send_app_message(0, "q"))    # queued
    at(sim, 3.2, lambda: procs[1].initiate_rollback())         # clears queue
    sim.run()
    # The queued message must never have been transmitted.
    assert all(r.dst != 0 or r.undone for r in procs[1].ledger.sent)
    check_no_dangling_receives(procs.values())


def test_restart_advances_exactly_once_for_multiple_instances():
    sim, procs = build_sim(n=3)
    at(sim, 1.0, lambda: procs[0].send_app_message(2, "a"))
    at(sim, 1.0, lambda: procs[1].send_app_message(2, "b"))
    at(sim, 3.0, lambda: procs[0].initiate_rollback())
    at(sim, 3.0, lambda: procs[1].initiate_rollback())
    sim.run()
    restarts = sim.trace.index.for_process(2, T.K_RESTART)
    assert len(restarts) == 1  # one rollback point despite two instances
    check_quiescent(procs.values())
