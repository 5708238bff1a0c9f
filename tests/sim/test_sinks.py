"""Unit tests for the pluggable trace sinks (emit layer)."""

from collections import Counter

import pytest

from repro.net import UniformDelay
from repro import tracekinds as T
from repro.sim.trace import (
    FLUSH_EVERY,
    InMemorySink,
    JsonlStreamSink,
    Trace,
    TraceEvent,
    load_jsonl,
)
from repro.testing import build_sim, run_random_workload
from repro.types import MessageId, TreeId


def record_sample(trace):
    """A small stream exercising the full field vocabulary."""
    trace.record(0.0, T.K_SEND, pid=0, msg_id=MessageId(0, 1), dst=1, label=1, payload="x")
    trace.record(0.5, T.K_RECEIVE, pid=1, msg_id=MessageId(0, 1), src=0, label=1)
    trace.record(1.0, T.K_CTRL_SEND, pid=1, dst=0, msg_type="chkpt_req", tree=TreeId(1, 2))
    trace.record(1.5, T.K_CHKPT_TENTATIVE, pid=1, seq=2, tree=TreeId(1, 2))
    trace.record(2.0, T.K_PARTITION, groups=[{0}, {1}])
    trace.record(2.5, T.K_ROLLBACK, pid=0, to_seq=1, tree=None, target="oldchkpt",
                 undone_sends=1, undone_receives=0)


def test_default_trace_keeps_events_in_memory():
    trace = Trace()
    record_sample(trace)
    assert len(trace) == len(trace.events) == 6
    assert [e.kind for e in trace][:2] == [T.K_SEND, T.K_RECEIVE]
    assert len(trace.index.by_kind(T.K_SEND)) == 1


def test_null_sink_retains_nothing_but_counts():
    trace = Trace(sinks=[])
    record_sample(trace)
    assert len(trace) == 6
    assert trace.events_recorded == 6
    with pytest.raises(RuntimeError, match="no InMemorySink"):
        trace.events


def test_streaming_trace_rejects_memory_queries(tmp_path):
    trace = Trace(sinks=[JsonlStreamSink(str(tmp_path / "t.jsonl"))])
    record_sample(trace)
    assert len(trace) == trace.events_recorded == 6
    with pytest.raises(RuntimeError, match="no InMemorySink"):
        trace.events
    with pytest.raises(RuntimeError, match="no InMemorySink"):
        list(trace)


def test_backfill_requires_memory_sink(tmp_path):
    # The index reads back recorded records, so a streaming trace has none.
    trace = Trace(sinks=[JsonlStreamSink(str(tmp_path / "t.jsonl"))])
    record_sample(trace)
    with pytest.raises(RuntimeError, match="no InMemorySink"):
        trace.index


def test_memory_sinks_beside_each_other_keep_the_one_emitted_event():
    first, second = InMemorySink(), InMemorySink()
    trace = Trace(sinks=[first, second])
    record_sample(trace)
    # Each sink appends the four fields and keeps the object it was handed.
    assert first.kinds == second.kinds == [e.kind for e in first.events]
    assert len(first.times) == len(first.pids) == len(first.fields) == 6
    assert all(a is b for a, b in zip(first.events, second.events))
    assert trace.index.by_kind(T.K_SEND)[0] is first.events[0]


def test_jsonl_round_trip_is_lossless(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    sink = JsonlStreamSink(path)
    trace = Trace(sinks=[sink, InMemorySink()])
    record_sample(trace)
    trace.close()
    assert sink.written == 6

    reloaded, truncated = load_jsonl(path)
    assert truncated == 0
    assert len(reloaded) == len(trace.events)
    for original, copy in zip(trace.events, reloaded):
        assert copy.index == original.index
        assert copy.time == original.time
        assert copy.kind == original.kind
        assert copy.pid == original.pid
        assert copy.fields == original.fields
    # Rich ids reconstruct as their real types, not strings.
    assert isinstance(reloaded[0].fields["msg_id"], MessageId)
    assert isinstance(reloaded[2].fields["tree"], TreeId)


def test_jsonl_streaming_run_matches_in_memory_run(tmp_path):
    """Same seed, different sinks: the event streams must be identical."""
    path = str(tmp_path / "run.jsonl")
    sim_mem, procs_mem = build_sim(n=4, seed=7, delay=UniformDelay(0.3, 0.9))
    run_random_workload(sim_mem, procs_mem, duration=10.0, checkpoint_rate=0.1,
                        error_rate=0.02)

    stream = JsonlStreamSink(path)
    sim_str, procs_str = build_sim(n=4, seed=7, delay=UniformDelay(0.3, 0.9),
                                   sinks=[stream])
    run_random_workload(sim_str, procs_str, duration=10.0, checkpoint_rate=0.1,
                        error_rate=0.02)
    sim_str.trace.close()

    assert stream.written == len(sim_mem.trace) > 0
    reloaded, _ = load_jsonl(path)
    assert [(e.time, e.kind, e.pid) for e in reloaded] == [
        (e.time, e.kind, e.pid) for e in sim_mem.trace
    ]


def test_index_counts_match_brute_force():
    memory = InMemorySink()
    sim, procs = build_sim(n=5, seed=3, delay=UniformDelay(0.3, 0.9), sinks=[memory])
    run_random_workload(sim, procs, duration=20.0, checkpoint_rate=0.1,
                        error_rate=0.05)

    by_kind = Counter(e.kind for e in memory.events)
    index = sim.trace.index
    assert sorted(index.kinds()) == sorted(by_kind)
    for kind, count in by_kind.items():
        assert index.count(kind) == count
    assert index.count(*by_kind) == len(memory.events)


def test_jsonl_sink_buffers_until_flush_threshold(tmp_path):
    path = str(tmp_path / "buffered.jsonl")
    sink = JsonlStreamSink(path)
    trace = Trace(sinks=[sink])
    # One event short of the threshold: nothing has hit the file yet.
    for step in range(FLUSH_EVERY - 1):
        trace.record(float(step), T.K_CRASH, pid=0)
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == ""
    # The next crosses FLUSH_EVERY: the whole buffer lands in one write.
    trace.record(float(FLUSH_EVERY), T.K_RECOVER, pid=0)
    assert len(load_jsonl(path)[0]) == FLUSH_EVERY
    # An explicit flush forces a partial buffer out.
    trace.record(99.0, T.K_CRASH, pid=1)
    sink.flush()
    assert len(load_jsonl(path)[0]) == FLUSH_EVERY + 1
    trace.close()


def test_jsonl_sink_close_is_idempotent_and_guards_late_emits(tmp_path):
    path = str(tmp_path / "closed.jsonl")
    sink = JsonlStreamSink(path)
    trace = Trace(sinks=[sink])
    record_sample(trace)
    trace.close()
    trace.close()  # idempotent
    assert sink.closed
    assert len(load_jsonl(path)[0]) == 6  # close flushed the buffer
    with pytest.raises(RuntimeError, match="closed"):
        sink.emit(TraceEvent(index=99, time=9.0, kind=T.K_CRASH, pid=0, fields={}))


def test_index_attached_mid_run_over_the_memory_fast_path_sees_each_event_once():
    memory = InMemorySink()
    trace = Trace(sinks=[memory])
    # A lone plain InMemorySink is stored as columns: no event is built.
    record_sample(trace)
    assert len(memory.times) == 6
    index = trace.index  # a view over the columns, which stay the records
    assert index.events_indexed == 6 and len(memory.times) == 6
    rollback = index.by_kind(T.K_ROLLBACK)[0]
    record_sample(trace)

    assert len(memory.times) == 12
    assert index.events_indexed == 12
    assert [e.index for e in memory.events] == list(range(12))
    assert memory.events[5] is rollback
    indexed = index.by_kind(*index.kinds())
    assert len(indexed) == 12
    assert all(a is b for a, b in zip(indexed, memory.events))


def test_memory_sink_subclass_overriding_emit_receives_every_event():
    class CountingSink(InMemorySink):
        def __init__(self):
            super().__init__()
            self.emitted = 0

        def emit(self, event):
            self.emitted += 1
            super().emit(event)

    sink = CountingSink()
    trace = Trace(sinks=[sink])
    record_sample(trace)
    assert sink.emitted == len(sink.events) == 6


def test_events_are_built_once_on_read_and_cached():
    trace = Trace()
    assert trace.record(1.0, T.K_CRASH, pid=3) is None
    trace.record(2.0, T.K_SEND, pid=0, msg_id=MessageId(0, 1), dst=1, label=1)
    first, second = trace.events
    assert trace.events[0] is first and trace.events[1] is second
    assert (first.index, first.time, first.kind, first.pid, first.fields) == (
        0, 1.0, T.K_CRASH, 3, {}
    )
    assert second.index == 1 and second.fields["dst"] == 1 and second.msg_id == MessageId(0, 1)
    # Only the unread tail is built; what was read stays the same object.
    # A list already taken does not grow with the trace until the next read.
    events = trace.events
    trace.record(3.0, T.K_RECOVER, pid=3)
    assert len(events) == 2
    assert trace.events[0] is first and trace[2].kind == T.K_RECOVER
    assert trace[2] is trace.events[2]


def test_sinks_changing_mid_run_read_back_the_all_memory_records():
    """Reading the index mid-run leaves the recorded run as it was."""
    def run(attach_index_at):
        sim, procs = build_sim(n=4, seed=7, delay=UniformDelay(0.3, 0.9))
        if attach_index_at is not None:
            sim.scheduler.at(attach_index_at, lambda: sim.trace.index, label="attach index")
        run_random_workload(sim, procs, duration=10.0, checkpoint_rate=0.1, error_rate=0.02)
        return [(e.index, e.time, e.kind, e.pid, e.fields) for e in sim.trace.events]

    all_memory = run(None)
    assert len(all_memory) > 100
    assert run(5.0) == all_memory
