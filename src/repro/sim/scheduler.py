"""The discrete-event scheduler at the heart of the simulator.

A classic calendar-heap kernel: events are pushed with an absolute simulation
time and popped in ``(time, priority, insertion)`` order.  The scheduler is
deliberately minimal — nodes, networks, and protocols are all built on top of
:meth:`Scheduler.at` / :meth:`Scheduler.after`.

Determinism contract
--------------------
Given the same initial schedule and the same callbacks (which must only draw
randomness from :class:`repro.sim.rng.Rng` streams), :meth:`run` produces an
identical execution on every invocation.  Equal-time events run in insertion
order within a priority class, so "send then checkpoint" in code is "send
then checkpoint" in the simulation.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.event import PRIORITY_NORMAL, Event
from repro.types import SimTime


class Scheduler:
    """Priority-queue event loop with virtual time."""

    def __init__(self) -> None:
        # Entries are ``(time, priority, seq, event)``: ``seq`` is unique, so
        # heap ordering is decided by C tuple comparison and never reaches
        # the (unordered) Event.
        self._heap: List[Tuple[SimTime, int, int, Event]] = []
        self._now: SimTime = 0.0
        self._seq = 0
        self._events_processed = 0
        self._events_cancelled = 0
        self._cancelled_in_heap = 0
        self._compactions = 0
        self._running = False

    @property
    def now(self) -> SimTime:
        """Current simulation time (time of the event being processed)."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (excludes cancelled events)."""
        return self._events_processed

    @property
    def events_cancelled(self) -> int:
        """Number of scheduled events that were cancelled before firing."""
        return self._events_cancelled

    @property
    def pending(self) -> int:
        """Number of events still queued and due to fire.

        Cancelled events are lazily deleted (they stay in the heap until
        popped) but do not count here; :attr:`pending_raw` exposes the raw
        heap size for anyone who cares about the physical queue.
        """
        return len(self._heap) - self._cancelled_in_heap

    @property
    def pending_raw(self) -> int:
        """Raw heap size, including lazily-deleted (cancelled) events."""
        return len(self._heap)

    @property
    def compactions(self) -> int:
        """Number of times the heap was compacted to evict cancelled events."""
        return self._compactions

    def _note_cancel(self) -> None:
        self._events_cancelled += 1
        self._cancelled_in_heap += 1
        # Lazy deletion is O(1) per cancel, but a workload that cancels most
        # of what it schedules (timer-heavy protocols) can leave the heap
        # dominated by tombstones, making every push/pop pay log(dead+live).
        # Once the majority of entries are dead, rebuild over the live ones.
        if self._cancelled_in_heap * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        live = [entry for entry in self._heap if not entry[3].cancelled]
        for entry in self._heap:
            if entry[3].cancelled:
                entry[3].cancel_hook = None
        self._heap = live
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        self._compactions += 1

    def _popped(self, event: Event) -> None:
        """Bookkeeping for an event leaving the heap."""
        event.cancel_hook = None
        if event.cancelled:
            self._cancelled_in_heap -= 1

    def at(
        self,
        time: SimTime,
        action: Callable[[], None],
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` at absolute simulation time ``time``.

        Returns the :class:`Event`, which the caller may :meth:`Event.cancel`.
        Scheduling in the past is an error: the kernel never travels back.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self._now}"
            )
        event = Event(time=time, priority=priority, seq=self._seq, action=action, label=label)
        event.cancel_hook = self._note_cancel
        self._seq += 1
        heapq.heappush(self._heap, (time, priority, event.seq, event))
        return event

    def after(
        self,
        delay: SimTime,
        action: Callable[[], None],
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` ``delay`` time units from now (``delay >= 0``)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.at(self._now + delay, action, priority=priority, label=label)

    def step(self) -> bool:
        """Fire the next non-cancelled event.

        Returns ``False`` when the queue is empty (simulation exhausted).
        """
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            self._popped(event)
            if event.cancelled:
                continue
            self._now = event.time
            self._events_processed += 1
            event.fire()
            return True
        return False

    def run(
        self,
        until: Optional[SimTime] = None,
        max_events: Optional[int] = None,
    ) -> SimTime:
        """Run events until exhaustion, ``until`` time, or ``max_events``.

        ``until`` is inclusive: events at exactly ``until`` still fire.
        Returns the final simulation time.  ``max_events`` guards against
        livelocked protocols in tests — hitting it raises, because a healthy
        run should always terminate by exhaustion or by the time bound.
        """
        if self._running:
            raise SimulationError("scheduler is not re-entrant")
        self._running = True
        fired = 0
        try:
            while self._heap:
                event = self._heap[0][3]
                if event.cancelled:
                    heapq.heappop(self._heap)
                    self._popped(event)
                    continue
                if until is not None and event.time > until:
                    self._now = until
                    break
                heapq.heappop(self._heap)
                self._popped(event)
                self._now = event.time
                self._events_processed += 1
                event.fire()
                fired += 1
                if max_events is not None and fired >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; possible livelock"
                    )
        finally:
            self._running = False
        return self._now
