"""The timer heap under every kernel, and the simulator's virtual clock on it.

A classic calendar-heap kernel: timers are pushed with an absolute kernel
time and popped in ``(time, priority, insertion)`` order:

* ``time`` — kernel time of the timer, in protocol units;
* ``priority`` — smaller runs first among same-time timers.  The paper gives
  rollback procedures (b5, b6) the *highest* priority; :mod:`repro.priorities`
  maps that to ``PRIORITY_ROLLBACK`` < ``PRIORITY_CHECKPOINT`` <
  ``PRIORITY_NORMAL`` < ``PRIORITY_TIMER``;
* ``seq`` — the heap's insertion counter, a deterministic FIFO tie-break for
  equal ``(time, priority)``.

:class:`TimerHeap` owns that heap, the :class:`Timer` it hands out, and the
accounting of cancelled timers (lazy deletion with tombstone compaction).  A
kernel is the heap plus a clock: :class:`Scheduler` below pops it in virtual
time, :class:`repro.runtime.loop.AsyncScheduler` against a real asyncio loop.
Same-instant order is therefore the same on both by construction.

Determinism contract
--------------------
Given the same initial schedule and the same callbacks (which must only draw
randomness from :class:`repro.sim.rng.Rng` streams), :meth:`Scheduler.run`
produces an identical execution on every invocation.  Equal-time events run
in insertion order within a priority class, so "send then checkpoint" in
code is "send then checkpoint" in the simulation.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.priorities import PRIORITY_NORMAL
from repro.types import SimTime


class Timer:
    """A scheduled callback, fired once in ``(when, priority, seq)`` order."""

    __slots__ = ("when", "priority", "seq", "action", "label", "cancelled", "_owner")

    def __init__(
        self,
        when: SimTime,
        priority: int,
        seq: int,
        action: Callable[[], None],
        label: str,
        owner: "TimerHeap",
    ) -> None:
        self.when = when
        self.priority = priority
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = False
        self._owner: Optional[TimerHeap] = owner  # None once fired

    def cancel(self) -> None:
        """Prevent the callback from firing (idempotent; a no-op once fired)."""
        if self.cancelled or self._owner is None:
            return
        self.cancelled = True
        self._owner._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self._owner is None else "armed")
        label = self.label or getattr(self.action, "__name__", "action")
        return f"<Timer t={self.when:.6f} prio={self.priority} {label} {state}>"


class TimerHeap:
    """The ``(when, priority, seq)`` heap of :class:`Timer`; a kernel adds ``now``."""

    now: SimTime

    def __init__(self) -> None:
        # Entries are ``(when, priority, seq, timer)``: ``seq`` is unique, so
        # heap ordering is decided by C tuple comparison and never reaches
        # the (unordered) Timer.
        self._heap: List[Tuple[SimTime, int, int, Timer]] = []
        self._seq = 0
        self._cancelled_in_heap = 0
        self.timers_fired = 0
        self.timers_cancelled = 0
        self.compactions = 0

    @property
    def pending(self) -> int:
        """Number of timers still queued and due to fire.

        Cancelled timers are lazily deleted (they stay in the heap until
        popped) but do not count here; :attr:`pending_raw` exposes the raw
        heap size for anyone who cares about the physical queue.
        """
        return len(self._heap) - self._cancelled_in_heap

    @property
    def pending_raw(self) -> int:
        """Raw heap size, including lazily-deleted (cancelled) timers."""
        return len(self._heap)

    def at(
        self,
        time: SimTime,
        action: Callable[[], None],
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> Timer:
        """Schedule ``action`` at absolute kernel time ``time``.

        Returns the :class:`Timer`, which the caller may :meth:`Timer.cancel`.
        """
        seq = self._seq
        self._seq = seq + 1
        timer = Timer(time, priority, seq, action, label, self)
        heapq.heappush(self._heap, (time, priority, seq, timer))
        return timer

    def after(
        self,
        delay: SimTime,
        action: Callable[[], None],
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> Timer:
        """Schedule ``action`` ``delay`` time units from now (``delay >= 0``)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.at(self.now + delay, action, priority, label)

    def _note_cancel(self) -> None:
        self.timers_cancelled += 1
        self._cancelled_in_heap += 1
        # Lazy deletion is O(1) per cancel, but a workload that cancels most
        # of what it schedules (timer-heavy protocols) can leave the heap
        # dominated by tombstones, making every push/pop pay log(dead+live).
        # Once the majority of entries are dead, rebuild over the live ones
        # (in place: a pop loop may hold the list).
        if self._cancelled_in_heap * 2 > len(self._heap):
            self._heap[:] = [entry for entry in self._heap if not entry[3].cancelled]
            heapq.heapify(self._heap)
            self._cancelled_in_heap = 0
            self.compactions += 1

    def _peek(self) -> Optional[Timer]:
        """The earliest live timer, discarding the tombstones above it."""
        heap = self._heap
        while heap:
            timer = heap[0][3]
            if not timer.cancelled:
                return timer
            heapq.heappop(heap)
            self._cancelled_in_heap -= 1
        return None

    def _pop(self) -> Timer:
        """Take the head :meth:`_peek` returned off the heap, as fired."""
        timer = heapq.heappop(self._heap)[3]
        timer._owner = None
        self.timers_fired += 1
        return timer


class Scheduler(TimerHeap):
    """The timer heap popped in virtual time: ``now`` is the firing timer's."""

    def __init__(self) -> None:
        super().__init__()
        #: Current simulation time (time of the event being processed).  A
        #: plain attribute, written only by :meth:`run` and :meth:`step`: the
        #: clock is read several times per message, and a property would add
        #: a Python call to every read.
        self.now: SimTime = 0.0
        self._running = False

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (excludes cancelled events)."""
        return self.timers_fired

    def at(
        self,
        time: SimTime,
        action: Callable[[], None],
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> Timer:
        """As :meth:`TimerHeap.at`; scheduling in the past is an error (the
        kernel never travels back)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self.now}"
            )
        # ``TimerHeap.at`` spelled inline: every simulated message is
        # scheduled through here, and one call per delivery is the budget.
        seq = self._seq
        self._seq = seq + 1
        timer = Timer(time, priority, seq, action, label, self)
        heapq.heappush(self._heap, (time, priority, seq, timer))
        return timer

    def step(self) -> bool:
        """Fire the next non-cancelled event.

        Returns ``False`` when the queue is empty (simulation exhausted).
        """
        if self._peek() is None:
            return False
        timer = self._pop()
        self.now = timer.when
        timer.action()
        return True

    def run(
        self,
        until: Optional[SimTime] = None,
        max_events: Optional[int] = None,
    ) -> SimTime:
        """Run events until exhaustion, ``until`` time, or ``max_events``.

        ``until`` is inclusive: events at exactly ``until`` still fire.
        Returns the final simulation time.  ``max_events`` guards against
        livelocked protocols in tests — hitting it raises, because a healthy
        run should always terminate by exhaustion or by the time bound.  An
        ``until`` earlier than :attr:`now` raises: the clock never goes back.
        """
        if self._running:
            raise SimulationError("scheduler is not re-entrant")
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until t={until} before current time t={self.now}"
            )
        self._running = True
        fired = 0
        heap = self._heap
        heappop = heapq.heappop
        try:
            # ``_peek`` + ``_pop`` spelled inline: one Python call per event
            # (the action) is the simulator's hot path.
            while heap:
                when, _, _, timer = heap[0]
                if timer.cancelled:
                    heappop(heap)
                    self._cancelled_in_heap -= 1
                    continue
                if until is not None and when > until:
                    self.now = until
                    break
                heappop(heap)
                timer._owner = None
                self.now = when
                self.timers_fired += 1
                timer.action()
                fired += 1
                if max_events is not None and fired >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; possible livelock"
                    )
        finally:
            self._running = False
        return self.now
