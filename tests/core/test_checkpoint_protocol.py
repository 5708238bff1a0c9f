"""Scenario tests for the checkpoint half of the algorithm (b1-b4)."""

from repro.testing import build_sim

from repro import tracekinds as T
from repro.analysis import check_c1, check_quiescent, reconstruct_trees


def at(sim, t, fn):
    sim.scheduler.at(t, fn)


def test_lone_initiator_commits_immediately():
    sim, procs = build_sim(n=3)
    at(sim, 1.0, lambda: procs[0].initiate_checkpoint())
    sim.run()
    assert procs[0].store.oldchkpt.seq == 2
    assert procs[0].store.newchkpt is None
    assert procs[1].store.oldchkpt.seq == 1  # untouched


def test_b1_guard_rejects_second_initiation_while_pending():
    sim, procs = build_sim(n=2)
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "m"))
    sim.run(until=3.0)
    assert procs[1].initiate_checkpoint() is not None
    # newchkpt pending (awaiting P0's participation): b1 guard refuses.
    assert procs[1].store.newchkpt is not None
    assert procs[1].initiate_checkpoint() is None
    sim.run()


def test_sender_is_forced_to_checkpoint():
    """The receiver's checkpoint recruits the sender (Definition 2)."""
    sim, procs = build_sim(n=2)
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "m"))
    at(sim, 3.0, lambda: procs[1].initiate_checkpoint())
    sim.run()
    assert procs[1].store.oldchkpt.seq == 2
    assert procs[0].store.oldchkpt.seq == 2  # forced
    check_c1(procs.values())


def test_receiver_is_not_forced():
    """Only senders of consumed messages join; pure receivers do not force
    their peers' senders... the reverse direction never recruits."""
    sim, procs = build_sim(n=2)
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "m"))
    at(sim, 3.0, lambda: procs[0].initiate_checkpoint())  # the SENDER initiates
    sim.run()
    assert procs[0].store.oldchkpt.seq == 2
    assert procs[1].store.oldchkpt.seq == 1  # receiver not recruited
    check_c1(procs.values())


def test_chain_recruitment_transitive():
    """P0 -> P1 -> P2 message chain; P2's checkpoint recruits both."""
    sim, procs = build_sim(n=3)
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "a"))
    at(sim, 2.0, lambda: procs[1].send_app_message(2, "b"))
    at(sim, 4.0, lambda: procs[2].initiate_checkpoint())
    sim.run()
    assert all(procs[i].store.oldchkpt.seq == 2 for i in range(3))
    trees = reconstruct_trees(sim.trace)
    tree = next(iter(trees.values()))
    assert tree.edges == [(1, 0), (2, 1)]
    assert tree.depth() == 2


def test_old_message_does_not_recruit():
    """A message already covered by the sender's committed checkpoint
    does not force a new one (neg_ack via seqof(C_i) > max_ij)."""
    sim, procs = build_sim(n=2)
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "m"))
    at(sim, 3.0, lambda: procs[0].initiate_checkpoint())  # covers the send
    at(sim, 6.0, lambda: procs[1].initiate_checkpoint())
    sim.run()
    assert procs[0].store.oldchkpt.seq == 2  # only its own
    assert procs[1].store.oldchkpt.seq == 2
    trees = reconstruct_trees(sim.trace)
    p1_tree = [t for t in trees.values() if t.root == 1][0]
    assert p1_tree.participants == set()


def test_shared_checkpoint_between_two_instances():
    """Example 2 mechanics: one uncommitted checkpoint serves two trees."""
    sim, procs = build_sim(n=3)
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "m1"))
    at(sim, 1.0, lambda: procs[0].send_app_message(2, "m2"))
    at(sim, 3.0, lambda: procs[1].initiate_checkpoint())
    at(sim, 3.0, lambda: procs[2].initiate_checkpoint())
    sim.run()
    # P0 is recruited by both instances but takes ONE checkpoint.
    tentatives = sim.trace.index.for_process(0, T.K_CHKPT_TENTATIVE)
    assert len(tentatives) == 1
    commits = sim.trace.index.for_process(0, T.K_CHKPT_COMMIT)
    assert len(commits) == 1
    assert procs[0].store.oldchkpt.seq == 2
    check_quiescent(procs.values())
    check_c1(procs.values())


def test_commit_resumes_suspended_sends():
    sim, procs = build_sim(n=2)
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "m"))
    at(sim, 3.0, lambda: procs[1].initiate_checkpoint())
    # Queue a message while P1 is suspended (tentative pending).
    at(sim, 3.1, lambda: procs[1].send_app_message(0, "queued"))
    sim.run()
    assert not procs[1].send_suspended
    # The queued message was eventually delivered.
    received = [r for r in procs[0].ledger.received if r.src == 1]
    assert len(received) == 1
    check_quiescent(procs.values())


def test_suspension_blocks_sends_but_not_receives():
    sim, procs = build_sim(n=3)
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "m"))
    at(sim, 3.0, lambda: procs[1].initiate_checkpoint())
    # While P1's instance is in flight, P2 sends it a message: received.
    at(sim, 3.2, lambda: procs[2].send_app_message(1, "while-suspended"))
    sim.run()
    assert any(r.src == 2 for r in procs[1].ledger.live_receives())


def test_instance_latency_traced():
    sim, procs = build_sim(n=2)
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "m"))
    at(sim, 3.0, lambda: procs[1].initiate_checkpoint())
    sim.run()
    start = sim.trace.index.last_of(T.K_INSTANCE_START)
    commit = sim.trace.index.last_of(T.K_INSTANCE_COMMIT)
    assert commit.time > start.time


def test_commit_set_cleared_after_commit():
    sim, procs = build_sim(n=2)
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "m"))
    at(sim, 3.0, lambda: procs[1].initiate_checkpoint())
    sim.run()
    assert procs[0].chkpt_commit_set == set()
    assert procs[1].chkpt_commit_set == set()


def test_manifest_records_live_messages():
    sim, procs = build_sim(n=2)
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "m"))
    at(sim, 3.0, lambda: procs[1].initiate_checkpoint())
    sim.run()
    recv = procs[1].store.oldchkpt.meta["recv"]
    assert [tuple(x) for x in recv] == [(0, 0)]
    sent = procs[0].store.oldchkpt.meta["sent"]
    assert [tuple(x) for x in sent] == [(1, 0)]
