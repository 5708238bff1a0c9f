"""The Section 3.5.3 case analysis, exercised scenario by scenario."""

from repro import tracekinds as T
from repro.analysis import check_no_dangling_receives, check_recovery_line
from repro.core import ExtendedCheckpointProcess
from repro.testing import build_sim


def build(n=3, seed=0):
    return build_sim(n=n, seed=seed, cls=ExtendedCheckpointProcess)


def at(sim, t, fn):
    sim.scheduler.at(t, fn)


def test_case1_message_before_oldchkpt_rejected():
    """Checkpoint case 1: max_ij < oldchkpt.seq -> not a true child."""
    sim, procs = build()
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "m"))
    # P0 commits its own checkpoint covering the send...
    at(sim, 3.0, lambda: procs[0].initiate_checkpoint())
    sim.run()
    assert procs[0].store.oldchkpt.seq == 2
    # ...so P1's later instance gets a neg_ack from P0.
    at(sim, 6.0, lambda: procs[1].initiate_checkpoint())
    sim.run()
    negs = [e for e in sim.trace.index.by_kind("ctrl_send")
            if e.pid == 0 and e.fields["msg_type"] == "chkpt_ack"
            and not e.fields["positive"]]
    assert negs
    assert procs[0].store.oldchkpt.seq == 2  # unchanged


def test_case2_pending_checkpoint_reused():
    """Checkpoint case 2: an existing pending checkpoint covers the
    referenced message -> reused, no new checkpoint."""
    sim, procs = build()
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "to-p1"))
    at(sim, 1.0, lambda: procs[0].send_app_message(2, "to-p2"))
    # Both receivers checkpoint ~simultaneously: P0 is recruited twice for
    # messages both covered by its first pending checkpoint.
    at(sim, 3.0, lambda: procs[1].initiate_checkpoint())
    at(sim, 3.0, lambda: procs[2].initiate_checkpoint())
    sim.run()
    tentatives = sim.trace.index.for_process(0, T.K_CHKPT_TENTATIVE)
    assert len(tentatives) == 1  # reused, not duplicated
    check_recovery_line(procs.values())


def test_case3_post_checkpoint_send_needs_new_checkpoint():
    """Checkpoint case 3: the referenced message was sent in the current
    interval (after every pending checkpoint) -> a fresh checkpoint."""
    sim, procs = build()
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "early"))
    at(sim, 3.0, lambda: procs[1].initiate_checkpoint())   # P0 takes ckpt A
    # The extension lets P0 keep sending: this one postdates checkpoint A.
    at(sim, 3.6, lambda: procs[0].send_app_message(2, "late"))
    at(sim, 4.6, lambda: procs[2].initiate_checkpoint())   # needs ckpt B
    sim.run()
    tentatives = sim.trace.index.for_process(0, T.K_CHKPT_TENTATIVE)
    assert len(tentatives) == 2
    seqs = [e.fields["seq"] for e in tentatives]
    assert seqs[1] > seqs[0]
    check_recovery_line(procs.values())
    check_no_dangling_receives(procs.values())


def test_rollback_case3_undoes_to_newest_pending():
    """Rollback case 3: the doomed receive is in the current interval ->
    roll back to the newest pending checkpoint (which survives)."""
    sim, procs = build(n=4)
    # P3 -> P0 gives P0 a child of its own, keeping its checkpoint pending
    # long enough for the rollback to land inside the window.
    at(sim, 0.5, lambda: procs[3].send_app_message(0, "dep"))
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "pre"))
    at(sim, 3.0, lambda: procs[1].initiate_checkpoint())   # P0 pending ckpt
    # P2 sends P0 a message *after* P0's pending checkpoint, then undoes it.
    at(sim, 3.6, lambda: procs[2].send_app_message(0, "doomed"))
    at(sim, 4.2, lambda: procs[2].initiate_rollback())
    sim.run()
    rolls = [e for e in sim.trace.index.by_kind(T.K_ROLLBACK) if e.pid == 0]
    assert rolls and rolls[0].fields["target"] == "newchkpt"
    check_no_dangling_receives(procs.values())


def test_rollback_case2_discards_pending_suffix():
    """Rollback cases 2.x: a doomed receive predates a pending checkpoint;
    that checkpoint and everything newer is discarded."""
    sim, procs = build()
    # P2's message lands first; P0 then checkpoints (covering it); P2 then
    # rolls back, undoing the message that the pending checkpoint captured.
    at(sim, 1.0, lambda: procs[2].send_app_message(0, "captured"))
    at(sim, 2.0, lambda: procs[0].send_app_message(1, "x"))
    at(sim, 3.0, lambda: procs[1].initiate_checkpoint())   # P0 pending ckpt
    at(sim, 3.4, lambda: procs[2].initiate_rollback())
    sim.run()
    aborts = sim.trace.index.for_process(0, T.K_CHKPT_ABORT)
    assert aborts, "the doomed pending checkpoint must be discarded"
    check_no_dangling_receives(procs.values())
    check_recovery_line(procs.values())


def test_marker_dedup_one_checkpoint_per_instance():
    """"All subsequent markers with the same timestamp t' are ignored."""
    sim, procs = build()
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "m"))
    at(sim, 3.0, lambda: procs[1].initiate_checkpoint())
    # P1 sends P2 several messages while its checkpoint is pending; each
    # carries the same marker, but P2 checkpoints only once for it.
    for k, t in enumerate((3.1, 3.2, 3.3)):
        at(sim, t, lambda i=k: procs[1].send_app_message(2, f"mk{i}"))
    sim.run()
    tentatives = sim.trace.index.for_process(2, T.K_CHKPT_TENTATIVE)
    assert len(tentatives) == 1
    assert procs[2].app.consumed == 3  # all messages still consumed
