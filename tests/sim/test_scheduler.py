"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.errors import SimulationError
from repro.priorities import (
    PRIORITY_CHECKPOINT,
    PRIORITY_NORMAL,
    PRIORITY_ROLLBACK,
    PRIORITY_TIMER,
)
from repro.sim.scheduler import Scheduler


def test_events_fire_in_time_order():
    sched = Scheduler()
    order = []
    sched.at(3.0, lambda: order.append("c"))
    sched.at(1.0, lambda: order.append("a"))
    sched.at(2.0, lambda: order.append("b"))
    sched.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_insertion_order():
    sched = Scheduler()
    order = []
    for k in range(10):
        sched.at(1.0, lambda k=k: order.append(k))
    sched.run()
    assert order == list(range(10))


def test_priority_orders_same_instant_events():
    sched = Scheduler()
    order = []
    sched.at(1.0, lambda: order.append("timer"), priority=PRIORITY_TIMER)
    sched.at(1.0, lambda: order.append("normal"), priority=PRIORITY_NORMAL)
    sched.at(1.0, lambda: order.append("ckpt"), priority=PRIORITY_CHECKPOINT)
    sched.at(1.0, lambda: order.append("roll"), priority=PRIORITY_ROLLBACK)
    sched.run()
    assert order == ["roll", "ckpt", "normal", "timer"]


def test_rollback_priority_is_highest():
    assert PRIORITY_ROLLBACK < PRIORITY_CHECKPOINT < PRIORITY_NORMAL < PRIORITY_TIMER


def test_now_advances_to_event_time():
    sched = Scheduler()
    seen = []
    sched.at(5.0, lambda: seen.append(sched.now))
    sched.run()
    assert seen == [5.0]
    assert sched.now == 5.0


def test_after_is_relative_to_now():
    sched = Scheduler()
    times = []
    sched.at(10.0, lambda: sched.after(2.5, lambda: times.append(sched.now)))
    sched.run()
    assert times == [12.5]


def test_scheduling_in_the_past_raises():
    sched = Scheduler()
    sched.at(5.0, lambda: None)
    sched.run()
    with pytest.raises(SimulationError):
        sched.at(3.0, lambda: None)


def test_negative_delay_raises():
    sched = Scheduler()
    with pytest.raises(SimulationError):
        sched.after(-1.0, lambda: None)


def test_cancelled_events_are_skipped():
    sched = Scheduler()
    fired = []
    event = sched.at(1.0, lambda: fired.append("cancelled"))
    sched.at(2.0, lambda: fired.append("kept"))
    event.cancel()
    sched.run()
    assert fired == ["kept"]


def test_run_until_is_inclusive():
    sched = Scheduler()
    fired = []
    sched.at(1.0, lambda: fired.append(1))
    sched.at(2.0, lambda: fired.append(2))
    sched.at(3.0, lambda: fired.append(3))
    sched.run(until=2.0)
    assert fired == [1, 2]
    assert sched.now == 2.0


def test_run_resumes_after_until():
    sched = Scheduler()
    fired = []
    sched.at(1.0, lambda: fired.append(1))
    sched.at(5.0, lambda: fired.append(5))
    sched.run(until=2.0)
    sched.run()
    assert fired == [1, 5]


def test_max_events_raises_on_runaway():
    sched = Scheduler()

    def reschedule():
        sched.after(1.0, reschedule)

    sched.at(0.0, reschedule)
    with pytest.raises(SimulationError, match="livelock"):
        sched.run(max_events=100)


def test_events_processed_counter():
    sched = Scheduler()
    for k in range(7):
        sched.at(float(k), lambda: None)
    sched.run()
    assert sched.events_processed == 7


def test_step_returns_false_when_exhausted():
    sched = Scheduler()
    sched.at(1.0, lambda: None)
    assert sched.step() is True
    assert sched.step() is False


def test_events_scheduled_during_run_are_processed():
    sched = Scheduler()
    order = []

    def chain(n):
        order.append(n)
        if n < 3:
            sched.after(1.0, lambda: chain(n + 1))

    sched.at(0.0, lambda: chain(0))
    sched.run()
    assert order == [0, 1, 2, 3]


def test_pending_excludes_cancelled_events():
    sched = Scheduler()
    events = [sched.at(float(k), lambda: None) for k in range(5)]
    assert sched.pending == 5
    events[1].cancel()
    events[3].cancel()
    # Lazily deleted: still physically in the heap, but not due to fire.
    assert sched.pending == 3
    assert sched.pending_raw == 5
    assert sched.timers_cancelled == 2


def test_pending_settles_after_run():
    sched = Scheduler()
    keep = sched.at(1.0, lambda: None)
    drop = sched.at(2.0, lambda: None)
    drop.cancel()
    sched.run()
    assert sched.pending == 0
    assert sched.pending_raw == 0
    assert sched.events_processed == 1
    assert sched.timers_cancelled == 1
    assert keep.cancelled is False


def test_double_cancel_counts_once():
    sched = Scheduler()
    event = sched.at(1.0, lambda: None)
    event.cancel()
    event.cancel()
    assert sched.timers_cancelled == 1
    assert sched.pending == 0
    # Cancelling the heap's only event makes tombstones the majority, so
    # compaction evicts it right away.
    assert sched.pending_raw == 0
    sched.run()
    assert sched.pending_raw == 0


def test_compaction_evicts_cancelled_majority():
    sched = Scheduler()
    keep = [sched.at(float(k), lambda: None) for k in range(4)]
    drop = [sched.at(float(10 + k), lambda: None) for k in range(5)]
    for k, event in enumerate(drop):
        event.cancel()
        if k < 4:  # 1..4 dead of 9 total: still a minority
            assert sched.compactions == 0
    # The fifth cancel tips the majority and triggers a rebuild.
    assert sched.compactions == 1
    assert sched.pending == 4
    assert sched.pending_raw == 4
    assert all(not event.cancelled for event in keep)


def test_compaction_preserves_firing_order():
    sched = Scheduler()
    order = []
    keep = []
    drop = []
    for k in range(20):
        target = keep if k % 3 == 0 else drop
        target.append(sched.at(float(k), lambda k=k: order.append(k)))
    for event in drop:
        event.cancel()
    assert sched.compactions >= 1
    sched.run()
    assert order == sorted(k for k in range(20) if k % 3 == 0)


def test_cancel_after_compaction_is_harmless():
    sched = Scheduler()
    sched.at(1.0, lambda: None)
    doomed = [sched.at(2.0, lambda: None) for _ in range(3)]
    for event in doomed:
        event.cancel()
    assert sched.compactions >= 1
    assert sched.pending_raw == 1  # only the live event survived
    # Evicted events lost their hook: re-cancelling must not skew counters.
    for event in doomed:
        event.cancel()
    assert sched.timers_cancelled == 3
    assert sched.pending == 1
    assert sched.pending_raw == 1


def test_cancel_after_fire_does_not_skew_pending():
    sched = Scheduler()
    fired = []
    event = sched.at(1.0, lambda: fired.append(1))
    sched.at(2.0, lambda: event.cancel())
    sched.at(3.0, lambda: None)
    sched.run(until=2.0)
    # Cancelling an already-fired event is a no-op for heap accounting.
    assert fired == [1]
    assert sched.pending == 1
    assert sched.pending_raw == 1


def test_pending_during_run_sees_future_events():
    sched = Scheduler()
    seen = []
    extra = []
    sched.at(1.0, lambda: extra.append(sched.at(5.0, lambda: None)))
    sched.at(2.0, lambda: extra[0].cancel())
    sched.at(3.0, lambda: seen.append(sched.pending))
    sched.run()
    assert seen == [0]


def test_scheduler_not_reentrant():
    sched = Scheduler()
    errors = []

    def reenter():
        try:
            sched.run()
        except SimulationError as exc:
            errors.append(exc)

    sched.at(1.0, reenter)
    sched.run()
    assert len(errors) == 1


def test_run_until_before_now_raises_instead_of_rewinding():
    sched = Scheduler()
    fired = []
    sched.at(10.0, lambda: fired.append(10))
    sched.at(20.0, lambda: fired.append(20))
    sched.run(until=10.0)
    with pytest.raises(SimulationError, match="before current time"):
        sched.run(until=5.0)
    # The clock stayed put, so the past is still closed to new timers.
    assert sched.now == 10.0
    with pytest.raises(SimulationError):
        sched.at(6.0, lambda: fired.append(6))
    sched.run()
    assert fired == [10, 20]
