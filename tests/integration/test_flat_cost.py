"""No protocol step is proportional to run history, and a message's is small.

Deterministic work counts, never timings: Python-level calls per scheduler
event under ``sys.setprofile`` (the ``tools/work_count.py`` method) must not
grow with the horizon nor pass a recorded ceiling, the per-message path must
not read the clock or the kernel through a property nor build a trace
record object (not even after the trace's index was read), the run leaves
the collector no per-record ``TraceEvent`` to scan, the trace gate builds
only the records it reads, and one checkpoint's ``storage.put`` must make
the same number of ``freeze`` calls whatever the length of the ledger
behind it.
"""

import gc
import sys
from typing import Any, Callable, Dict, Tuple

from repro import tracekinds as T
from repro.analysis import audit_jobs, check_c1_from_trace
from repro.core import CheckpointProcess, ProtocolConfig
from repro.kernel import KernelCore
from repro.net.network import Network
from repro.sim.node import Node
from repro.sim.trace import InMemorySink, TraceEvent, TraceSink
from repro.stable import snapshot
from repro.testing import build_sim
from repro.types import MessageId
from repro.workloads import RandomPeerWorkload

WARM_UP = 10.0

#: Calls per scheduler event of ``profile_run(20.0)``, recorded on CPython
#: 3.11 once a record stopped building its ``TraceEvent`` (one Python call
#: per record: 28.42 before, 47.34 before the per-message hops below went).
#: Spending more than 2% above it needs a re-recording and a reason.
CALLS_PER_EVENT_RECORDED = 26.91

#: Checked accessors for cold paths.  A node or network the kernel calls is
#: bound, so the per-message path reads ``_sim`` and ``scheduler.now``; an
#: only sink that is exactly an ``InMemorySink`` is stored into as columns,
#: so no record object is built until the trace is read.
HOPS = {
    "KernelCore.now": KernelCore.now.fget.__code__,
    "Node.sim": Node.sim.fget.__code__,
    "Network.sim": Network.sim.fget.__code__,
    "InMemorySink.emit": InMemorySink.emit.__code__,
    "TraceEvent.__init__": TraceEvent.__init__.__code__,
}


def scenario(duration: float, sinks=None):
    """The n=8 random-peer run with a checkpoint round every 5 units."""
    sim, procs = build_sim(
        n=8, seed=5, cls=CheckpointProcess, config=ProtocolConfig(checkpoint_interval=5.0),
        sinks=sinks,
    )
    RandomPeerWorkload(message_rate=10.0, step_rate=0.5, duration=duration).install(sim, procs)
    return sim


def profile_run(duration: float, read_index: bool = False) -> Tuple[float, Dict[object, int]]:
    """``(calls per event, calls per code object)`` over ``(WARM_UP, duration]``,
    after a query of ``trace.index`` at ``WARM_UP`` if ``read_index``."""
    sim = scenario(duration)
    # Not counted: the start-up, whose event mix differs (no checkpoint tree
    # before the first timers fire at t=5) and would weigh 4x more in the
    # short run than in the long one.
    sim.run(until=WARM_UP)
    if read_index:
        sim.trace.index.by_kind(T.K_CHKPT_COMMIT)
    events0 = sim.scheduler.events_processed
    per_code = calls_during(sim.run, until=duration)
    return sum(per_code.values()) / (sim.scheduler.events_processed - events0), per_code


def calls_during(action: Callable[..., object], *args: Any, **kwargs: Any) -> Dict[object, int]:
    """Python calls per code object while ``action(*args, **kwargs)`` runs."""
    per_code: Dict[object, int] = {}

    def on_event(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            per_code[code] = per_code.get(code, 0) + 1

    sys.setprofile(on_event)
    try:
        action(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return per_code


def test_calls_per_event_do_not_grow_with_the_horizon():
    short, long = profile_run(20.0)[0], profile_run(80.0)[0]
    assert abs(long - short) / short < 0.02, (short, long)


def test_per_message_path_takes_no_property_hop_and_keeps_its_budget():
    per_event, per_code = profile_run(20.0)
    assert {name: per_code.get(code, 0) for name, code in HOPS.items()} == dict.fromkeys(HOPS, 0)
    assert per_event <= CALLS_PER_EVENT_RECORDED * 1.02, per_event


def test_records_after_an_index_read_stay_columns():
    # The index is a view over the store's columns: reading it mid-run
    # attaches nothing, so the records that follow build no TraceEvent.
    per_event, per_code = profile_run(20.0, read_index=True)
    assert {name: per_code.get(code, 0) for name, code in HOPS.items()} == dict.fromkeys(HOPS, 0)
    assert per_event <= CALLS_PER_EVENT_RECORDED * 1.02, per_event


def test_the_trace_gate_builds_only_the_records_it_reads():
    sim = scenario(20.0)
    sim.run(until=20.0)
    index = sim.trace.index
    per_code = calls_during(lambda: (check_c1_from_trace(index), audit_jobs(index)))
    built = per_code.get(TraceEvent.__init__.__code__, 0)
    # C1 reads the leave records and the folded manifests; the job audit
    # reads jobs, rollbacks and tentative checkpoints.
    read = index.count(T.K_LEAVE, T.K_JOB_SUBMIT, T.K_JOB_UNIT, T.K_JOB_STAGE, T.K_JOB_DONE,
                       T.K_ROLLBACK, T.K_CHKPT_TENTATIVE)
    assert 0 < built <= read < len(sim.trace) / 10, (built, read, len(sim.trace))


class DiscardSink(TraceSink):
    """A second sink that keeps nothing: the trace then builds every event."""

    def emit(self, event: TraceEvent) -> None:
        pass


def tracked_by_a_run(duration: float, sinks=None) -> Tuple[int, int, int]:
    """``(records, tracked objects, TraceEvents)`` a run adds, collector on."""
    def census() -> Tuple[int, int]:
        gc.collect()
        tracked = gc.get_objects()
        return len(tracked), sum(type(obj) is TraceEvent for obj in tracked)

    assert gc.isenabled()
    objects0, events0 = census()
    sim = scenario(duration, sinks)
    sim.run(until=duration)
    objects, events = census()  # before anything reads ``trace.events``
    return len(sim.trace), objects - objects0, events - events0


def test_a_run_leaves_the_collector_no_trace_event_to_scan():
    # Relative to the same run with a second sink, so the gate holds on any
    # interpreter: what the ledgers and ``fields`` dicts leave tracked
    # differs between versions, but it is the same in both runs.
    for duration in (20.0, 80.0):
        records, tracked, events = tracked_by_a_run(duration)
        built, tracked_built, events_built = tracked_by_a_run(
            duration, [InMemorySink(), DiscardSink()]
        )
        assert events == 0 and events_built == built == records, (duration, events, events_built)
        # At least one object fewer per record, its TraceEvent, to within 1%
        # (0.9996 and 0.9997 on CPython 3.11: a few set-up objects differ;
        # an event that also has a ``__dict__``, as on 3.9, saves more).
        assert (tracked_built - tracked) / records > 0.99, (duration, tracked, tracked_built)


def freezes_of_one_checkpoint(history: int, monkeypatch) -> int:
    _sim, procs = build_sim(n=2, seed=0)
    engine = procs[0].engine
    for k in range(history):
        engine.ledger.record_send(MessageId(0, k), dst=1)
        engine.ledger.record_receive(MessageId(1, k), src=1, label=1)
    counted = []
    real_freeze = snapshot.freeze

    def counting_freeze(value):
        counted.append(1)
        return real_freeze(value)

    with monkeypatch.context() as patch:
        # ``freeze`` recurses through its module global; the storage backend
        # holds its own reference to the outermost call.
        patch.setattr(snapshot, "freeze", counting_freeze)
        patch.setattr("repro.stable.storage.freeze", counting_freeze)
        engine.initiate_checkpoint()
    record = engine.store.newchkpt
    assert len(record.meta["sent"]) == len(record.meta["recv"]) == history
    return len(counted)


def test_checkpoint_freeze_calls_do_not_grow_with_the_ledger(monkeypatch):
    small = freezes_of_one_checkpoint(200, monkeypatch)
    assert small == freezes_of_one_checkpoint(2000, monkeypatch) > 0
