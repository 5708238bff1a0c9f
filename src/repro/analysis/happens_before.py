"""Happens-before analysis over execution traces (paper Definition 1).

Assigns a vector clock to every trace event, with the two generators of the
Lamport relation: local order within a process, and send → receive matching
of normal messages (by ``msg_id``).  Control messages also induce causality
in reality, but Definition 1 and the consistency constraints are stated over
*normal* messages, so control events only advance their local component.

Usage::

    hb = HappensBefore(sim.trace)
    hb.happens_before(e1, e2)          # Definition 1
    hb.concurrent(e1, e2)
"""

from __future__ import annotations

from typing import Dict, Optional

from repro import tracekinds as T
from repro.analysis.index import as_index
from repro.sim.trace import Trace, TraceEvent
from repro.types import ProcessId


class HappensBefore:
    """Vector-clock index over a trace."""

    def __init__(self, trace: Trace):
        self.trace = trace
        self.index = as_index(trace)
        self._clocks: Dict[int, Dict[ProcessId, int]] = {}
        self._build()

    def _build(self) -> None:
        current: Dict[ProcessId, Dict[ProcessId, int]] = {}
        send_clock: Dict[object, Dict[ProcessId, int]] = {}

        # Every process-attributed record, in trace order.
        for event in self.index.by_kind(*self.index.kinds()):
            pid = event.pid
            if pid is None:
                continue
            clock = current.setdefault(pid, {})

            if event.kind == T.K_RECEIVE:
                origin = send_clock.get(event.fields["msg_id"])
                if origin is not None:
                    for other, value in origin.items():
                        if value > clock.get(other, 0):
                            clock[other] = value

            clock[pid] = clock.get(pid, 0) + 1
            self._clocks[event.index] = dict(clock)

            if event.kind == T.K_SEND:
                send_clock[event.fields["msg_id"]] = dict(clock)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def happens_before(self, first: TraceEvent, second: TraceEvent) -> bool:
        """True iff ``first`` → ``second`` under Definition 1."""
        if first.index == second.index:
            return False
        c1 = self._clocks.get(first.index)
        c2 = self._clocks.get(second.index)
        if c1 is None or c2 is None or first.pid is None:
            return False
        return c1.get(first.pid, 0) <= c2.get(first.pid, 0) and c1 != c2

    def concurrent(self, first: TraceEvent, second: TraceEvent) -> bool:
        """Neither event happens before the other."""
        return not self.happens_before(first, second) and not self.happens_before(
            second, first
        )

    def find_send(self, msg_id: object) -> Optional[TraceEvent]:
        """The send event of a message, if traced — O(1) via the index."""
        return self.index.send_of(msg_id)

    def find_receive(self, msg_id: object) -> Optional[TraceEvent]:
        """The receive event of a message, if delivered and accepted — O(1)."""
        return self.index.receive_of(msg_id)
