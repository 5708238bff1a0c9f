"""Events for the discrete-event simulation kernel.

An :class:`Event` is an opaque callback scheduled at a simulation time.  The
kernel orders events by ``(time, priority, seq)`` — the scheduler keys its
heap on that tuple, so events themselves define no ordering:

* ``time`` — simulation time of the event;
* ``priority`` — smaller runs first among same-time events.  The paper gives
  rollback procedures (b5, b6) the *highest* priority; the protocol layer maps
  that to :data:`PRIORITY_ROLLBACK` < :data:`PRIORITY_CHECKPOINT` <
  :data:`PRIORITY_NORMAL`;
* ``seq`` — global insertion counter, guaranteeing deterministic FIFO
  tie-breaking for equal ``(time, priority)``.

Events can be *cancelled*; a cancelled event stays in the heap but is skipped
when popped (standard lazy deletion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.types import SimTime

# Priorities live in the dependency-free :mod:`repro.priorities` (shared
# with the sans-IO engine); re-exported here for backward compatibility.
from repro.priorities import (  # noqa: F401
    PRIORITY_CHECKPOINT,
    PRIORITY_NORMAL,
    PRIORITY_ROLLBACK,
    PRIORITY_TIMER,
)


@dataclass
class Event:
    """A scheduled callback, fired in ``(time, priority, seq)`` order."""

    time: SimTime
    priority: int
    seq: int
    action: Callable[[], None] = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)
    # Set by the scheduler while the event sits in its heap, so lazy
    # deletion can be accounted for without rescanning the heap.
    cancel_hook: "Callable[[], None] | None" = field(
        default=None, compare=False, repr=False
    )

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.cancel_hook is not None:
            self.cancel_hook()

    def fire(self) -> None:
        """Run the event's action.  The scheduler calls this exactly once."""
        self.action()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = " cancelled" if self.cancelled else ""
        label = self.label or getattr(self.action, "__name__", "action")
        return f"<Event t={self.time:.6f} prio={self.priority} {label}{status}>"


def describe(action: Any) -> str:
    """Best-effort label for an event action, for traces and debugging."""
    name = getattr(action, "__name__", None)
    if name:
        return name
    return type(action).__name__
