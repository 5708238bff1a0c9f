"""Merging per-node JSONL trace shards into one TraceIndex.

A live cluster writes one JSONL file per process, so no single file is
globally ordered: each shard is locally time-sorted but their timestamps
interleave arbitrarily.  ``TraceIndex.from_jsonl_files`` must produce the
stream one global trace would have recorded — time-ordered, densely
renumbered, with cross-file send/receive matching intact.
"""

from repro import tracekinds as T
from repro.analysis.index import TraceIndex
from repro.sim.trace import JsonlStreamSink, TraceEvent
from repro.types import MessageId


def write_shard(path, events):
    sink = JsonlStreamSink(str(path))
    for event in events:
        sink.emit(event)
    sink.close()
    return str(path)


def ev(index, time, kind, pid, **fields):
    return TraceEvent(index=index, time=time, kind=kind, pid=pid, fields=fields)


def test_merge_orders_by_time_across_files(tmp_path):
    # P0's shard covers t=1..5, P1's t=0.5..4.5: every adjacent pair in the
    # merged stream comes from alternating files.
    shard_a = write_shard(
        tmp_path / "node-0.jsonl",
        [
            ev(0, 1.0, "compute", 0, note="a0"),
            ev(1, 3.0, "compute", 0, note="a1"),
            ev(2, 5.0, "compute", 0, note="a2"),
        ],
    )
    shard_b = write_shard(
        tmp_path / "node-1.jsonl",
        [
            ev(0, 0.5, "compute", 1, note="b0"),
            ev(1, 2.5, "compute", 1, note="b1"),
            ev(2, 4.5, "compute", 1, note="b2"),
        ],
    )
    index = TraceIndex.from_jsonl_files([shard_a, shard_b])
    merged = index.by_kind("compute")
    assert [e.fields["note"] for e in merged] == ["b0", "a0", "b1", "a1", "b2", "a2"]
    assert [e.index for e in merged] == list(range(6))
    times = [e.time for e in merged]
    assert times == sorted(times)


def test_merge_breaks_time_ties_by_original_index(tmp_path):
    # Same timestamp in both files: the original emit index decides, so two
    # shards cut from ONE trace reassemble in their exact original order.
    shard_a = write_shard(
        tmp_path / "a.jsonl",
        [ev(4, 2.0, "compute", 0, note="later"), ev(7, 2.0, "compute", 0, note="latest")],
    )
    shard_b = write_shard(
        tmp_path / "b.jsonl",
        [ev(1, 2.0, "compute", 1, note="earliest")],
    )
    merged = TraceIndex.from_jsonl_files([shard_a, shard_b]).by_kind("compute")
    assert [e.fields["note"] for e in merged] == ["earliest", "later", "latest"]


def test_merge_matches_sends_to_receives_across_files(tmp_path):
    # The send lives in P0's shard, the receive in P1's, and the receive's
    # timestamp lands between two of the sender's events.
    msg = MessageId(0, 3)
    shard_a = write_shard(
        tmp_path / "node-0.jsonl",
        [
            ev(0, 1.0, T.K_SEND, 0, msg_id=msg, dst=1, label=1, payload="m"),
            ev(1, 4.0, "compute", 0),
        ],
    )
    shard_b = write_shard(
        tmp_path / "node-1.jsonl",
        [ev(0, 2.2, T.K_RECEIVE, 1, msg_id=msg, src=0, label=1)],
    )
    index = TraceIndex.from_jsonl_files([shard_a, shard_b])
    send, receive = index.send_of(msg), index.receive_of(msg)
    assert send is not None and receive is not None
    assert send.pid == 0 and receive.pid == 1
    assert send.index < receive.index  # merged order reflects causality here
    assert index.events_indexed == 3


def test_merge_of_empty_and_missing_overlap_is_graceful(tmp_path):
    shard = write_shard(tmp_path / "only.jsonl", [ev(0, 0.0, "compute", 0)])
    empty = write_shard(tmp_path / "empty.jsonl", [])
    index = TraceIndex.from_jsonl_files([shard, empty])
    assert index.events_indexed == 1
    assert TraceIndex.from_jsonl_files([]).events_indexed == 0


def test_merge_of_overlapping_time_ranges_interleaves_densely(tmp_path):
    # Three shards covering fully overlapping windows (the multi-process
    # cluster's shape: every shard traces the whole run's time range).
    shards = []
    for s in range(3):
        shards.append(write_shard(
            tmp_path / f"shard-{s}.jsonl",
            [ev(k, 0.25 * s + k, "compute", s, note=f"s{s}e{k}") for k in range(4)],
        ))
    index = TraceIndex.from_jsonl_files(shards)
    merged = index.by_kind("compute")
    assert index.events_indexed == 12
    assert [e.index for e in merged] == list(range(12))
    times = [e.time for e in merged]
    assert times == sorted(times)
    # Every shard contributed, and adjacency mixes shards (true interleave).
    assert {e.pid for e in merged} == {0, 1, 2}
    assert any(a.pid != b.pid for a, b in zip(merged, merged[1:]))


def test_merge_accepts_out_of_order_file_argument_order(tmp_path):
    # The caller's glob order must not matter: handing files newest-first
    # yields the same merged stream as oldest-first.
    early = write_shard(tmp_path / "b.jsonl", [ev(0, 1.0, "compute", 0, note="early")])
    late = write_shard(tmp_path / "a.jsonl", [ev(0, 2.0, "compute", 1, note="late")])
    forward = TraceIndex.from_jsonl_files([early, late]).by_kind("compute")
    backward = TraceIndex.from_jsonl_files([late, early]).by_kind("compute")
    assert [e.fields["note"] for e in forward] == ["early", "late"]
    assert [e.fields["note"] for e in backward] == ["early", "late"]


def test_merge_tolerates_truncated_final_line(tmp_path):
    # A shard from a crashed/unflushed worker typically ends mid-record.
    # The merge must salvage every complete line, count the lost tail on
    # the index, and still merge the other shards fully.
    intact = write_shard(tmp_path / "ok.jsonl", [ev(0, 0.5, "compute", 1, note="ok")])
    torn = write_shard(
        tmp_path / "torn.jsonl",
        [ev(0, 1.0, "compute", 0, note="kept"), ev(1, 2.0, "compute", 0, note="torn")],
    )
    with open(torn) as handle:
        lines = handle.readlines()
    with open(torn, "w") as handle:
        handle.write(lines[0])
        handle.write(lines[1][: len(lines[1]) // 2])  # crash mid-write

    index = TraceIndex.from_jsonl_files([intact, torn])
    assert index.truncated_lines == 1
    assert [e.fields["note"] for e in index.by_kind("compute")] == ["ok", "kept"]


def test_merge_still_rejects_interior_corruption(tmp_path):
    # Only a *final* torn line is crash debris; garbage in the middle of a
    # shard means something else is wrong and must not be silently eaten.
    import pytest

    shard = write_shard(
        tmp_path / "bad.jsonl",
        [ev(0, 1.0, "compute", 0), ev(1, 2.0, "compute", 0)],
    )
    with open(shard) as handle:
        lines = handle.readlines()
    with open(shard, "w") as handle:
        handle.write(lines[0][: len(lines[0]) // 2])  # torn line...
        handle.write("\n")
        handle.write(lines[1])  # ...with a valid record after it

    with pytest.raises(Exception):
        TraceIndex.from_jsonl_files([shard])


def test_merge_handles_partially_flushed_shard_pair(tmp_path):
    # A partially flushed shard (buffered sink killed mid-run) simply has
    # fewer records; send/receive matching degrades gracefully — the
    # receive side still indexes even when the send was never flushed.
    msg_flushed, msg_lost = MessageId(0, 1), MessageId(0, 2)
    sender = write_shard(
        tmp_path / "sender.jsonl",
        [ev(0, 1.0, T.K_SEND, 0, msg_id=msg_flushed, dst=1, label=1, payload="m")],
    )  # the send of msg_lost was still buffered at the crash
    receiver = write_shard(
        tmp_path / "receiver.jsonl",
        [
            ev(0, 2.0, T.K_RECEIVE, 1, msg_id=msg_flushed, src=0, label=1),
            ev(1, 3.0, T.K_RECEIVE, 1, msg_id=msg_lost, src=0, label=1),
        ],
    )
    index = TraceIndex.from_jsonl_files([sender, receiver])
    assert index.events_indexed == 3
    assert index.send_of(msg_flushed) is not None
    assert index.receive_of(msg_flushed) is not None
    assert index.send_of(msg_lost) is None
    assert index.receive_of(msg_lost) is not None
