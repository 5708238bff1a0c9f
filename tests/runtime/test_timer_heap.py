"""One timer heap under both kernels: the contract ``TimerHeap`` carries.

``Scheduler`` (virtual clock) and ``AsyncScheduler`` (real clock) are the
same heap, so the same script of ``at``/``after``/``cancel`` must fire in the
same order and leave the same ``pending`` on both.  The live scheduler is
driven on a hand-stepped fake loop (``time()`` + ``call_at``), which makes
its clock as deterministic as the simulator's.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.priorities import (
    PRIORITY_CHECKPOINT,
    PRIORITY_NORMAL,
    PRIORITY_ROLLBACK,
    PRIORITY_TIMER,
)
from repro.runtime.loop import AsyncScheduler
from repro.sim.scheduler import Scheduler


class FakeHandle:
    def __init__(self, when, callback):
        self.when, self.callback, self.cancelled = when, callback, False

    def cancel(self):
        self.cancelled = True


class FakeLoop:
    """The two things ``AsyncScheduler`` asks of an asyncio loop."""

    def __init__(self):
        self.now = 0.0
        self.handles = []

    def time(self):
        return self.now

    def call_at(self, when, callback):
        self.handles.append(FakeHandle(when, callback))
        return self.handles[-1]

    def advance(self, to):
        """Run every wakeup due by ``to``, each at exactly its own time."""
        while True:
            due = [h for h in self.handles if not h.cancelled and h.when <= to]
            if not due:
                break
            handle = min(due, key=lambda h: h.when)
            self.handles.remove(handle)
            self.now = max(self.now, handle.when)
            handle.callback()
        self.now = to


def sim_kernel():
    scheduler = Scheduler()
    return scheduler, (lambda: None), scheduler.run


def live_kernel():
    scheduler, loop = AsyncScheduler(time_scale=1.0), FakeLoop()
    return scheduler, (lambda: scheduler.attach(loop)), (lambda: loop.advance(1000.0))


# One timer of a script: (instant, priority or None for the default, parent,
# the timers it cancels when it fires, armed before the kernel starts?).  A
# timer with a parent is armed from inside the parent's firing, ``instant``
# units later (0 = the very instant being drained); one without is armed up
# front at absolute time ``instant``.  Few instants and few priorities, so
# ties on both are the common case.
timer_specs = st.tuples(
    st.integers(0, 3),
    st.sampled_from(
        [None, PRIORITY_ROLLBACK, PRIORITY_CHECKPOINT, PRIORITY_NORMAL, PRIORITY_TIMER]
    ),
    st.one_of(st.none(), st.integers(0, 40)),
    st.lists(st.integers(0, 40), max_size=2),
    st.booleans(),
)


def drive(kernel, script, cancels):
    """Play ``script`` on one kernel; returns everything observable."""
    scheduler, start, run = kernel()
    log, handles = [], {}
    parent = [None if p is None or i == 0 else p % i for i, (_, _, p, _, _) in enumerate(script)]

    def cancel(target):
        handle = handles.get(target % len(script))  # pending, fired, or not armed yet
        if handle is not None:
            handle.cancel()

    def arm(i, schedule):
        instant, priority, _, _, _ = script[i]
        options = {} if priority is None else {"priority": priority}
        handles[i] = schedule(float(instant), lambda: fire(i), label=f"t{i}", **options)

    def fire(i):
        log.append((i, scheduler.now))
        for child in range(len(script)):
            if parent[child] == i:
                arm(child, scheduler.after)
        for target in script[i][3]:
            cancel(target)
        log.append(scheduler.pending)

    tops = [i for i in range(len(script)) if parent[i] is None]
    for i in tops:
        if script[i][4]:
            arm(i, scheduler.at)  # queued before the live kernel has a loop
    for target in cancels[::2]:
        cancel(target)
    start()
    for i in tops:
        if not script[i][4]:
            arm(i, scheduler.at)
    for target in cancels[1::2]:
        cancel(target)
    log.append(scheduler.pending)
    run()
    return (
        log, scheduler.pending, scheduler.timers_fired, scheduler.timers_cancelled,
        {i: (h.when, h.priority, h.seq, h.cancelled) for i, h in handles.items()},
    )


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.lists(timer_specs, min_size=1, max_size=24), st.lists(st.integers(0, 40), max_size=6))
def test_same_script_same_firing_order_and_pending_on_both_kernels(script, cancels):
    on_sim = drive(sim_kernel, script, cancels)
    assert drive(live_kernel, script, cancels) == on_sim
    _, pending, fired, cancelled, handles = on_sim
    assert pending == 0 and fired + cancelled == len(handles)


@pytest.mark.parametrize("kernel", [sim_kernel, live_kernel])
def test_cancel_is_idempotent_and_a_noop_once_fired(kernel):
    scheduler, start, run = kernel()
    fired = scheduler.at(1.0, lambda: None)
    dropped = scheduler.at(2.0, lambda: None)
    scheduler.at(3.0, lambda: None)
    dropped.cancel()
    dropped.cancel()
    assert (scheduler.pending, scheduler.timers_cancelled) == (2, 1)
    start()
    run()
    fired.cancel()
    assert not fired.cancelled and dropped.cancelled
    assert (scheduler.pending, scheduler.timers_fired, scheduler.timers_cancelled) == (0, 2, 1)


def test_live_heap_compacts_when_most_of_it_is_cancelled():
    scheduler, start, run = live_kernel()
    start()
    order = []
    timers = [scheduler.at(5.0 + k, lambda k=k: order.append(k)) for k in range(10_010)]
    assert scheduler.pending_raw == 10_010
    for timer in timers[10:]:
        timer.cancel()
    assert scheduler.pending == 10
    assert scheduler.pending_raw < 100  # tombstones evicted, not left to be popped
    assert scheduler.compactions >= 1
    run()
    assert order == list(range(10))
    assert (scheduler.pending, scheduler.pending_raw) == (0, 0)
