"""Unit tests for the incremental TraceIndex (index layer)."""

import pytest

from repro import tracekinds as T
from repro.analysis import collect, reconstruct_trees
from repro.analysis.index import BIRTH_SEQ, TraceIndex, as_index
from repro.net import UniformDelay
from repro.sim import JsonlStreamSink
from repro.testing import build_sim, run_random_workload


def run_workload(n=5, seed=11, duration=20.0, error_rate=0.05, sinks=None):
    sim, procs = build_sim(n=n, seed=seed, delay=UniformDelay(0.3, 0.9), sinks=sinks)
    run_random_workload(sim, procs, duration=duration, checkpoint_rate=0.1,
                        error_rate=error_rate)
    return sim, procs


def test_index_attaches_lazily_and_backfills():
    sim, _ = run_workload()
    index = sim.trace.index
    assert index.events_indexed == len(sim.trace)
    assert sim.trace.index is index  # cached, not rebuilt


def test_by_kind_matches_full_scan():
    sim, _ = run_workload()
    index = sim.trace.index
    events = sim.trace.events
    for kind in index.kinds():
        assert index.by_kind(kind) == [e for e in events if e.kind == kind]
        assert index.count(kind) == sum(1 for e in events if e.kind == kind)
    merged = index.by_kind(T.K_SEND, T.K_RECEIVE)
    assert merged == [e for e in events if e.kind in (T.K_SEND, T.K_RECEIVE)]


def test_for_process_matches_full_scan():
    sim, procs = run_workload()
    index = sim.trace.index
    events = sim.trace.events
    assert index.pids() == sorted({e.pid for e in events if e.pid is not None})
    for pid in procs:
        assert index.for_process(pid) == [e for e in events if e.pid == pid]
        assert index.for_process(pid, T.K_SEND) == [
            e for e in events if e.pid == pid and e.kind == T.K_SEND
        ]
        assert index.for_process(pid, T.K_SEND, T.K_RECEIVE) == [
            e for e in events if e.pid == pid and e.kind in (T.K_SEND, T.K_RECEIVE)
        ]


def test_last_of_matches_scan():
    sim, procs = run_workload()
    index = sim.trace.index
    events = sim.trace.events
    sends = [e for e in events if e.kind == T.K_SEND]
    assert index.last_of(T.K_SEND) is sends[-1]
    pid = sends[-1].pid
    assert index.last_of(T.K_SEND, pid) is sends[-1]
    assert index.last_of("no_such_kind") is None


def test_send_receive_matching():
    sim, _ = run_workload()
    index = sim.trace.index
    for event in sim.trace.index.by_kind(T.K_RECEIVE):
        send = index.send_of(event.fields["msg_id"])
        assert send is not None and send.kind == T.K_SEND
        assert send.fields["msg_id"] == event.fields["msg_id"]
        assert index.receive_of(event.fields["msg_id"]) is event


def test_ledger_shadow_tracks_live_records():
    sim, procs = run_workload()
    index = sim.trace.index
    for pid, proc in procs.items():
        expected = sorted(
            (r.src, r.msg_id.send_index) for r in proc.ledger.live_receives()
        )
        assert index.live_receives(pid) == expected
        for record in proc.ledger.sent:
            live = index.send_is_live(pid, record.msg_id.send_index)
            assert live == (not record.undone)


def test_committed_manifests_match_process_history():
    sim, procs = run_workload()
    index = sim.trace.index
    for pid, proc in procs.items():
        views = index.committed_manifests(pid)
        history = proc.committed_history
        assert len(views) == len(history)
        assert views[0].seq == BIRTH_SEQ
        for view, record in zip(views, history):
            assert view.seq == record.seq
            assert set(view.recv) == {tuple(p) for p in record.meta.get("recv", [])}
            assert set(view.sent) == {tuple(p) for p in record.meta.get("sent", [])}
        assert index.last_committed_manifest(pid) == views[-1]


def test_tree_events_cover_every_stamped_event():
    sim, _ = run_workload()
    index = sim.trace.index
    stamped = [e for e in sim.trace.events if e.fields.get("tree") is not None]
    by_tree = {}
    for event in stamped:
        by_tree.setdefault(event.fields["tree"], []).append(event)
    assert set(index.tree_ids()) == set(by_tree)
    for tree, events in by_tree.items():
        assert index.tree_events(tree) == events


def test_reconstruct_trees_from_reloaded_stream(tmp_path):
    """Tree reconstruction works on an index fed from a jsonl file."""
    path = str(tmp_path / "run.jsonl")
    sim, _ = run_workload(sinks=None)
    live_trees = reconstruct_trees(sim.trace)

    # Same seed, streamed to disk; rebuild the index offline.
    from repro.sim.trace import load_jsonl

    stream = JsonlStreamSink(path)
    sim2, _ = run_workload(sinks=[stream])
    sim2.trace.close()
    events, truncated = load_jsonl(path)
    assert truncated == 0
    offline = TraceIndex()
    for event in events:
        offline.emit(event)
    offline_trees = reconstruct_trees(offline)

    assert set(offline_trees) == set(live_trees)
    for tree_id, tree in live_trees.items():
        other = offline_trees[tree_id]
        assert other.root == tree.root
        assert other.kind == tree.kind
        assert other.edges == tree.edges
        assert other.decided == tree.decided


def test_as_index_passthrough_and_coercion():
    sim, _ = run_workload()
    index = sim.trace.index
    assert as_index(index) is index
    assert as_index(sim.trace) is index


def test_collect_counts_match_scan():
    sim, _ = run_workload()
    stats = collect(sim)
    events = sim.trace.events
    by_kind = {}
    for event in events:
        by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
    assert stats.checkpoints_committed == by_kind.get(T.K_CHKPT_COMMIT, 0)
    assert stats.rollbacks == by_kind.get(T.K_ROLLBACK, 0)
    assert stats.instances_started == by_kind.get(T.K_INSTANCE_START, 0)
    assert stats.instances_committed == by_kind.get(T.K_INSTANCE_COMMIT, 0)
    assert len(stats.instance_latencies) <= stats.instances_committed


def test_index_on_streaming_trace_must_attach_up_front():
    index = TraceIndex()
    sim, procs = run_workload(sinks=[index])
    assert sim.trace.index is index
    # Queries still work without any in-memory event list.
    assert len(index.by_kind(T.K_SEND)) > 0
    with pytest.raises(RuntimeError):
        sim.trace.events
