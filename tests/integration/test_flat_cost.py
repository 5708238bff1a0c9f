"""No protocol step is proportional to run history.

Deterministic work counts, never timings: Python-level calls per scheduler
event under ``sys.setprofile`` (the ``tools/work_count.py`` method) must not
grow with the horizon, and one checkpoint's ``storage.put`` must make the
same number of ``freeze`` calls whatever the length of the ledger behind it.
"""

import sys

from repro.core import CheckpointProcess, ProtocolConfig
from repro.stable import snapshot
from repro.testing import build_sim
from repro.types import MessageId
from repro.workloads import RandomPeerWorkload

WARM_UP = 10.0


def calls_per_event(duration: float) -> float:
    sim, procs = build_sim(
        n=8, seed=5, cls=CheckpointProcess, config=ProtocolConfig(checkpoint_interval=5.0)
    )
    RandomPeerWorkload(message_rate=10.0, step_rate=0.5, duration=duration).install(sim, procs)
    # Not counted: the start-up, whose event mix differs (no checkpoint tree
    # before the first timers fire at t=5) and would weigh 4x more in the
    # short run than in the long one.
    sim.run(until=WARM_UP)
    calls = 0

    def on_event(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    events0 = sim.scheduler.events_processed
    sys.setprofile(on_event)
    try:
        sim.run(until=duration)
    finally:
        sys.setprofile(None)
    return calls / (sim.scheduler.events_processed - events0)


def test_calls_per_event_do_not_grow_with_the_horizon():
    short, long = calls_per_event(20.0), calls_per_event(80.0)
    assert abs(long - short) / short < 0.02, (short, long)


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
