"""Unit tests for the incremental TraceIndex (index layer)."""

import pytest

from repro import tracekinds as T
from repro.analysis import collect, reconstruct_trees
from repro.analysis.index import BIRTH_SEQ, ManifestView, TraceIndex, as_index
from repro.core import ProtocolConfig
from repro.failure import FailureInjector
from repro.net import UniformDelay
from repro.sim import JsonlStreamSink
from repro.sim.trace import load_jsonl
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


def test_reconstruct_trees_from_reloaded_stream(tmp_path):
    """Tree reconstruction works on an index fed from a jsonl file."""
    path = str(tmp_path / "run.jsonl")
    sim, _ = run_workload(sinks=None)
    live_trees = reconstruct_trees(sim.trace)

    # Same seed, streamed to disk; rebuild the index offline.
    stream = JsonlStreamSink(path)
    sim2, _ = run_workload(sinks=[stream])
    sim2.trace.close()
    offline = TraceIndex.from_jsonl_files([path])
    assert offline.truncated_lines == 0
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


def test_streaming_run_is_queried_offline_from_its_jsonl_file(tmp_path):
    path = str(tmp_path / "run.jsonl")
    sim, _ = run_workload(sinks=[JsonlStreamSink(path)])
    sim.trace.close()
    # No in-memory store, so no index and no event list on the live trace.
    with pytest.raises(RuntimeError, match="no InMemorySink"):
        sim.trace.index
    with pytest.raises(RuntimeError, match="no InMemorySink"):
        sim.trace.events
    offline = TraceIndex.from_jsonl_files([path])
    memory, _ = run_workload()
    assert offline.events_indexed == len(memory.trace) > 0
    assert [(e.index, e.time, e.kind, e.pid, e.fields) for e in offline.by_kind(T.K_SEND)] == [
        (e.index, e.time, e.kind, e.pid, e.fields) for e in memory.trace.index.by_kind(T.K_SEND)
    ]


def ask(index, pids, kinds, msg_ids):
    """What the index answers to every query the view serves."""
    return {
        "by_kind": {kind: index.by_kind(kind) for kind in kinds},
        "count": {kind: index.count(kind) for kind in kinds},
        "for_process": {(pid, kind): index.for_process(pid, kind)
                        for pid in pids for kind in kinds},
        "send_of": {m: index.send_of(m) for m in msg_ids},
        "receive_of": {m: index.receive_of(m) for m in msg_ids},
        "send_is_live": {(m.sender, m.send_index): index.send_is_live(m.sender, m.send_index)
                         for m in msg_ids},
        "live_receives": {pid: index.live_receives(pid) for pid in pids},
        "committed_manifests": {pid: index.committed_manifests(pid) for pid in pids},
    }


def brute_force(events, pids, kinds, msg_ids):
    """The same answers from one scan of the finished event list."""
    sends, receives, pending, committed = {}, {}, {}, {pid: [] for pid in pids}
    send_of, receive_of = {}, {}
    for e in events:
        pid, f = e.pid, e.fields
        if pid is None:
            continue
        if e.kind == T.K_SEND:
            send_of[f["msg_id"]] = e
            sends[pid, f["msg_id"].send_index] = [f["dst"], True]
        elif e.kind == T.K_RECEIVE:
            receive_of[f["msg_id"]] = e
            receives[pid, f["src"], f["msg_id"].send_index] = True
        elif e.kind == T.K_UNDO_SEND:
            sends[pid, f["msg_id"].send_index][1] = False
        elif e.kind == T.K_UNDO_RECEIVE:
            receives[pid, f["src"], f["msg_id"].send_index] = False
        elif e.kind == T.K_CHKPT_TENTATIVE:
            pending[pid, f["seq"]] = ManifestView(
                f["seq"],
                frozenset((s, i) for (p, s, i), live in receives.items() if p == pid and live),
                frozenset((d, i) for (p, i), (d, live) in sends.items() if p == pid and live),
            )
        elif e.kind == T.K_CHKPT_COMMIT:
            committed[pid].append(pending.pop((pid, f["seq"])))
        elif e.kind == T.K_CHKPT_ABORT:
            pending.pop((pid, f["seq"]), None)
    birth = ManifestView(BIRTH_SEQ, frozenset(), frozenset())
    return {
        "by_kind": {kind: [e for e in events if e.kind == kind] for kind in kinds},
        "count": {kind: sum(e.kind == kind for e in events) for kind in kinds},
        "for_process": {(pid, kind): [e for e in events if e.pid == pid and e.kind == kind]
                        for pid in pids for kind in kinds},
        "send_of": {m: send_of.get(m) for m in msg_ids},
        "receive_of": {m: receive_of.get(m) for m in msg_ids},
        "send_is_live": {(m.sender, m.send_index): sends[m.sender, m.send_index][1]
                         for m in msg_ids},
        "live_receives": {pid: sorted((s, i) for (p, s, i), live in receives.items()
                                      if p == pid and live) for pid in pids},
        "committed_manifests": {pid: [birth] + committed[pid] for pid in pids},
    }


def run_with_failures(seed, sinks=None, read_at=(), read=None):
    """A crash, a recovery and rollbacks; ``read(sim, k)`` runs at ``read_at[k]``."""
    sim, procs = build_sim(
        n=5, seed=seed, delay=UniformDelay(0.3, 0.9), sinks=sinks,
        config=ProtocolConfig(failure_resilience=True), detector_latency=1.0, spoolers=True,
    )
    injector = FailureInjector(sim)
    injector.crash_at(6.0, pid=seed % 5)
    injector.recover_at(12.0, pid=seed % 5)
    for k, when in enumerate(read_at):
        sim.scheduler.at(when, lambda k=k: read(sim, k), label="read the index")
    run_random_workload(sim, procs, duration=20.0, checkpoint_rate=0.1, error_rate=0.05,
                        horizon=200.0)
    return sim, sorted(procs)


def questions(events, pids):
    kinds = sorted({e.kind for e in events})
    msg_ids = [e.fields["msg_id"] for e in events if e.kind == T.K_SEND]
    return pids, kinds, msg_ids


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_index_read_mid_run_and_held_answers_like_a_scan_at_the_end(seed):
    agreed, views = [], []

    def read(sim, k):
        index = sim.trace.index
        views.append(index)
        if k % 2:  # also builds the event list, so later reads mix both paths
            events = sim.trace.events
            q = questions(events, list(range(5)))
            agreed.append(ask(index, *q) == brute_force(events, *q))
        else:  # builds only the records these return
            index.by_kind(T.K_CHKPT_TENTATIVE)
            index.committed_manifests(k)

    sim, pids = run_with_failures(seed, read_at=(3.0, 7.0, 9.5, 14.0), read=read)
    assert agreed == [True, True]
    held = sim.trace.index
    assert all(view is held for view in views)
    events = sim.trace.events
    assert held.events_indexed == len(events) > 400
    assert {T.K_ROLLBACK, T.K_CRASH, T.K_UNDO_SEND, T.K_UNDO_RECEIVE} <= {e.kind for e in events}
    q = questions(events, pids)
    assert ask(held, *q) == brute_force(events, *q)


@pytest.mark.parametrize("seed", [2, 3])
def test_index_from_jsonl_files_answers_like_a_scan(seed, tmp_path):
    path = str(tmp_path / "run.jsonl")
    sim, pids = run_with_failures(seed, sinks=[JsonlStreamSink(path)])
    sim.trace.close()
    index = TraceIndex.from_jsonl_files([path])
    events, _ = load_jsonl(path)
    q = questions(events, pids)
    assert ask(index, *q) == brute_force(events, *q)

