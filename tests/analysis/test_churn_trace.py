"""Analysis battery over traces whose membership changes mid-stream.

The observability stack assumed a frozen pid set only implicitly (every
pid present from event 0); with the membership plane a pid can first
appear mid-trace (a join) or stop appearing (a leave, with a handoff to a
successor).  These tests pin that :class:`TraceIndex`, the consistency
checkers and :func:`audit_jobs` treat such traces as first-class — no
KeyError on late pids, no phantom violations from departed ones.
"""

from repro import tracekinds as T
from repro.analysis import audit_jobs, check_c1, check_c1_from_trace
from repro.analysis.consistency import check_recovery_line_from_trace
from repro.analysis.index import TraceIndex
from repro.core.process import CheckpointProcess
from repro.sim.trace import JsonlStreamSink, TraceEvent
from repro.testing import build_sim


def test_merged_join_leave_trace_supports_the_full_battery():
    sim, procs = build_sim(n=3, seed=1, fifo=True)
    sim.scheduler.at(1.0, lambda: procs[0].send_app_message(1, "a"))
    sim.scheduler.at(2.0, lambda: sim.join_node(CheckpointProcess(3, None)))
    sim.scheduler.at(3.0, lambda: procs[1].send_app_message(3, "b"))
    sim.scheduler.at(4.0, lambda: sim.nodes[3].send_app_message(0, "c"))
    sim.scheduler.at(6.0, lambda: procs[0].initiate_checkpoint())
    sim.scheduler.at(12.0, lambda: sim.leave_node(1, successor=0))
    sim.scheduler.at(14.0, lambda: sim.nodes[3].send_app_message(0, "d"))
    sim.scheduler.at(16.0, lambda: procs[0].initiate_checkpoint())
    sim.run(until=60.0)

    index = sim.trace.index
    # P3 first appears mid-trace; P1 stops appearing after its leave.
    assert 3 in index.pids()
    assert index.count(T.K_JOIN) == 1
    assert index.count(T.K_LEAVE) == 1
    assert index.count(T.K_HANDOFF) == 1
    assert index.count(T.K_CHKPT_COMMIT) > 0
    # The consistency battery holds over the merged churn trace: the
    # joiner's manifests reconstruct from its first event, the departed
    # pid's from its last committed checkpoint before leaving.
    check_c1_from_trace(sim.trace)
    check_recovery_line_from_trace(sim.trace)
    # And over the live membership (joiner in, departed pid out).
    check_c1(sim.nodes.values())


def _ev(index, time, kind, pid, **fields):
    return TraceEvent(index=index, time=time, kind=kind, pid=pid, fields=fields)


def _write_shard(path, events):
    sink = JsonlStreamSink(str(path))
    for event in events:
        sink.emit(event)
    sink.close()
    return str(path)


def test_shard_merge_tolerates_pids_first_appearing_mid_trace(tmp_path):
    # Node 2's shard begins at t=10 — it joined long after 0 started.
    shard_a = _write_shard(
        tmp_path / "node-0.jsonl",
        [
            _ev(0, 1.0, "compute", 0, note="a0"),
            _ev(1, 12.0, "compute", 0, note="a1"),
        ],
    )
    shard_b = _write_shard(
        tmp_path / "node-2.jsonl",
        [
            _ev(0, 10.0, "join", 2, epoch=2),
            _ev(1, 11.0, "compute", 2, note="b0"),
        ],
    )
    index = TraceIndex.from_jsonl_files([shard_a, shard_b])
    assert index.pids() == [0, 2]
    merged = index.by_kind("compute")
    assert [e.fields["note"] for e in merged] == ["a0", "b0", "a1"]
    # Manifest queries about the late pid answer (empty birth manifest)
    # rather than raising.
    assert index.last_committed_manifest(2).recv == frozenset()


def test_audit_jobs_handles_a_host_that_joined_mid_trace(tmp_path):
    # A job hosted on a pid whose first trace event is far from index 0.
    shard = _write_shard(
        tmp_path / "node-5.jsonl",
        [
            _ev(0, 20.0, "join", 5, epoch=3),
            _ev(1, 21.0, "job_submit", 5, job="jX"),
            _ev(2, 22.0, "job_unit", 5, job="jX", stage=0),
            _ev(3, 23.0, "job_stage", 5, job="jX", stage=0),
            _ev(4, 24.0, "job_done", 5, job="jX"),
        ],
    )
    index = TraceIndex.from_jsonl_files([shard])
    audit = audit_jobs(index)
    assert audit["hosts"] == 1
    assert audit["jobs_submitted"] == 1
    assert audit["jobs_done"] == 1
    assert audit["committed_stage_reexecutions"] == 0
