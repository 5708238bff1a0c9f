"""Unit tests for CheckpointProcess plumbing: suspension, queueing, app."""

from repro import tracekinds as T
from repro.core import CounterApp
from repro.testing import build_sim


def at(sim, t, fn):
    sim.scheduler.at(t, fn)


def test_birth_checkpoint_and_counter_start_at_one():
    sim, procs = build_sim(n=1)
    p = procs[0]
    assert p.store.oldchkpt.seq == 1
    assert p.ledger.n == 1


def test_message_labels_start_at_one():
    sim, procs = build_sim(n=2)
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "m"))
    sim.run()
    assert procs[0].ledger.sent[0].label == 1


def test_local_step_updates_app():
    sim, procs = build_sim(n=1)
    procs[0].local_step()
    procs[0].local_step()
    assert procs[0].app.steps == 2


def test_app_consumes_delivered_messages():
    sim, procs = build_sim(n=2)
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "hello"))
    sim.run()
    assert procs[1].app.consumed == 1
    assert procs[1].app.log == ["hello"]


def test_counter_app_digest_is_order_insensitive():
    a, b = CounterApp(0), CounterApp(0)
    a.handle_message(1, "x")
    a.handle_message(2, "y")
    b.handle_message(2, "y")
    b.handle_message(1, "x")
    assert a.digest == b.digest


def test_counter_app_snapshot_restore_roundtrip():
    app = CounterApp(0)
    app.handle_message(1, "x")
    app.local_step()
    snap = app.snapshot()
    app.handle_message(2, "y")
    app.restore(snap)
    assert app.consumed == 1 and app.steps == 1
    assert app.snapshot() == snap


def test_checkpoint_timer_fires_periodically():
    from repro.core import ProtocolConfig

    sim, procs = build_sim(n=2, config=ProtocolConfig(checkpoint_interval=5.0))
    sim.run(until=22.0)
    starts = [e for e in sim.trace.index.by_kind(T.K_INSTANCE_START)
              if e.fields["instance"] == "checkpoint"]
    assert len(starts) >= 6  # both processes, ~4 rounds each


def test_send_while_crashed_is_dropped():
    sim, procs = build_sim(n=2)
    sim.crash(0)
    procs[0].send_app_message(1, "ghost")
    sim.run()
    assert procs[1].app.consumed == 0
    assert procs[0].ledger.sent == []


def test_tree_ids_are_unique_and_ordered():
    sim, procs = build_sim(n=1)
    p = procs[0]
    t1, t2 = p._new_tree_id(), p._new_tree_id()
    assert t1 != t2 and t1 < t2
    assert t1.initiator == 0


def test_persisted_commit_set_roundtrip():
    sim, procs = build_sim(n=1)
    p = procs[0]
    from repro.types import TreeId

    p.engine.chkpt_commit_set = {TreeId(0, 5), TreeId(3, 1)}
    p._persist_commit_set()
    assert p._load_commit_set() == {TreeId(0, 5), TreeId(3, 1)}


def test_trace_records_suspend_resume_pairs():
    sim, procs = build_sim(n=2)
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "m"))
    at(sim, 3.0, lambda: procs[1].initiate_checkpoint())
    sim.run()
    suspends = sim.trace.index.for_process(1, T.K_SUSPEND_SEND)
    resumes = sim.trace.index.for_process(1, T.K_RESUME_SEND)
    assert len(suspends) == len(resumes) == 1
    assert suspends[0].time <= resumes[0].time


def test_quiesce_switch_stops_autonomous_initiation():
    # The host-settable quiesce switch: once off, the checkpoint timer
    # keeps re-arming but opens no new trees — this is how a live cluster
    # drains every in-flight 2PC round before cutting a run.  Flipping it
    # back on resumes initiation from the still-armed timer.
    from repro.core import ProtocolConfig

    sim, procs = build_sim(n=2, config=ProtocolConfig(checkpoint_interval=5.0))

    def starts():
        return sum(1 for e in sim.trace.events if e.kind == T.K_INSTANCE_START)

    sim.run(until=12.0)
    before = starts()
    assert before > 0

    for p in procs.values():
        p.engine.autonomous_checkpoints = False
    sim.run(until=40.0)
    assert starts() == before

    for p in procs.values():
        p.engine.autonomous_checkpoints = True
    sim.run(until=60.0)
    assert starts() > before
