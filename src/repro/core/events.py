"""Typed input events for the sans-IO :class:`repro.core.engine.ProtocolEngine`.

An adapter (the simulation :class:`repro.sim.node.Node` process, the live
:class:`repro.runtime.loop.AsyncRuntime` process, or the model checker's
:mod:`repro.mc` harness) translates whatever happens in its world into one of
these events and feeds it to ``ProtocolEngine.handle``.  The engine never
talks to a kernel: everything it may legitimately know about the outside —
the current time, which peers the failure detector believes down, what a
spooler replica held — rides on the event itself.  (The kernel adapter skips
the event object for the five per-message inputs — ``Deliver``,
``TimerFired``, ``AppSend``, ``LocalStep``, ``AppOp`` — and stamps the same
fields with ``engine.stamp`` before calling the method ``handle`` would
dispatch to; the two doors are one, see ``tests/core/test_input_doors.py``.)

Field conventions:

* ``at`` — the kernel time the event happened; becomes the engine's notion
  of "now" (used for checkpoint ``made_at`` stamps).
* ``down`` — frozen snapshot of the failure detector's believed-down set,
  or ``None`` when resilience is off / no detector exists.  Drives the
  proactive rule-1/rule-2 handling.
* ``status_down`` — processes the status monitor reports non-operational
  (assumption c of the paper), or ``None`` without a detector.  Consumed by
  the rule-3 recovery tail, which replays missed failure notices.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.compat import slotted_dataclass
from repro.net.message import Envelope
from repro.types import ProcessId, SimTime


@slotted_dataclass(frozen=True)
class Start:
    """The kernel started this process (fires once, before any traffic)."""

    peers: Tuple[ProcessId, ...]
    at: SimTime = 0.0


@slotted_dataclass(frozen=True)
class Deliver:
    """The network delivered ``envelope`` to this process."""

    envelope: Envelope
    at: SimTime = 0.0
    down: Optional[frozenset] = None
    status_down: Optional[Tuple[ProcessId, ...]] = None


@slotted_dataclass(frozen=True)
class TimerFired:
    """A timer previously requested via a ``SetTimer`` effect expired."""

    name: str
    at: SimTime = 0.0
    down: Optional[frozenset] = None
    status_down: Optional[Tuple[ProcessId, ...]] = None


@slotted_dataclass(frozen=True)
class InitiateCheckpoint:
    """Condition b1: autonomously start a checkpointing instance."""

    at: SimTime = 0.0
    down: Optional[frozenset] = None
    status_down: Optional[Tuple[ProcessId, ...]] = None


@slotted_dataclass(frozen=True)
class InitiateRollback:
    """Condition b5: a transient error was detected; roll back."""

    at: SimTime = 0.0
    down: Optional[frozenset] = None
    status_down: Optional[Tuple[ProcessId, ...]] = None


@slotted_dataclass(frozen=True)
class AppSend:
    """The application asks to send ``payload`` to ``dst``."""

    dst: ProcessId
    payload: Any = None
    at: SimTime = 0.0


@slotted_dataclass(frozen=True)
class LocalStep:
    """One unit of local application computation."""

    at: SimTime = 0.0


@slotted_dataclass(frozen=True)
class AppOp:
    """A tracked mutation of hosted application state (``repro.app``).

    ``op`` is a plain data tuple the hosted :class:`~repro.core.app.
    Application` interprets via its ``apply`` method.  Routing mutations
    through the engine (rather than poking the app object directly) is what
    makes job state crash-consistent: the mutation lands *between* engine
    events, so every checkpoint snapshot and rollback restore sees it
    atomically, and the trace records exactly which mutations each
    checkpoint covers.
    """

    op: Any
    at: SimTime = 0.0


@slotted_dataclass(frozen=True)
class Fail:
    """Fail-stop crash: volatile protocol state vanishes."""

    at: SimTime = 0.0


@slotted_dataclass(frozen=True)
class Recover:
    """The process restarts after a crash (Section 6, rule 3).

    ``spooled`` carries the envelopes drained from this process's spooler
    group (``None`` when no spoolers are installed); ``spool_decisions`` the
    ``(kind, tree)`` decision pairs the live spooler replicas observed
    (``None`` when unavailable — no group, or every replica down).
    """

    at: SimTime = 0.0
    down: Optional[frozenset] = None
    status_down: Optional[Tuple[ProcessId, ...]] = None
    spooled: Optional[Tuple[Envelope, ...]] = None
    spool_decisions: Optional[Tuple[Any, ...]] = None


@slotted_dataclass(frozen=True)
class Join:
    """The membership plane announces that ``pid`` joined the cluster.

    Delivered to every *existing* engine (the joiner itself receives a
    normal :class:`Start` whose ``peers`` already include it).  ``peers`` is
    the full post-join membership; an empty tuple means "add ``pid`` to what
    you already believe" (used by drivers that have no global view).
    """

    pid: ProcessId
    peers: Tuple[ProcessId, ...] = ()
    at: SimTime = 0.0


@slotted_dataclass(frozen=True)
class Leave:
    """A graceful departure (paper extension; Nakamura-style dynamism).

    Delivered to the departing engine itself — which resolves its open
    checkpoint obligations and hands the rest to ``successor`` via a
    :class:`repro.core.effects.Handoff` effect — and to every remaining
    engine, which drops ``pid`` from its peer set and from every open
    instance round so no 2PC blocks on a departed member.

    ``spooled`` carries ``(src, label)`` summaries of the envelopes drained
    from the departing pid's spooler group (dead letters, salvaged for
    accounting and carried to the successor in the handoff).
    """

    pid: ProcessId
    successor: Optional[ProcessId] = None
    spooled: Tuple[Tuple[ProcessId, Optional[int]], ...] = ()
    at: SimTime = 0.0


@slotted_dataclass(frozen=True)
class FailureNotice:
    """The failure detector reports that peer ``pid`` crashed."""

    pid: ProcessId
    at: SimTime = 0.0
    down: Optional[frozenset] = None
    status_down: Optional[Tuple[ProcessId, ...]] = None


@slotted_dataclass(frozen=True)
class RecoveryNotice:
    """The failure detector reports that peer ``pid`` is operational again."""

    pid: ProcessId
    at: SimTime = 0.0


Event = Any  # any of the classes above; kept loose for Python 3.9

__all__ = [
    "AppOp",
    "AppSend",
    "Deliver",
    "Event",
    "Fail",
    "FailureNotice",
    "InitiateCheckpoint",
    "InitiateRollback",
    "Join",
    "Leave",
    "LocalStep",
    "Recover",
    "RecoveryNotice",
    "Start",
    "TimerFired",
]
