"""Typed output effects emitted by the sans-IO protocol engine.

What the protocol does *per decision, failure or departure* is one of these
values, applied by the engine's eager sink the moment it is emitted and
returned by ``handle``.  An adapter interprets each against its kernel:

========================  ====================================================
effect                    simulation / live-runtime interpretation
========================  ====================================================
``Broadcast``             expand ``body`` into one control send per live peer
``SetTimer``              arm a named, cancellable timer (optionally with an
                          RNG-jittered delay drawn from the kernel's seeded
                          stream); fire back a timer input
``CancelTimer``           cancel the named timer
``ObserveDecision``       let the spooler replicas record a decision
``Redeliver``             synchronously re-inject a spooled envelope
``Handoff``               wrap the departing engine's obligations into a
                          ``HandoffMsg`` control message to its successor
========================  ====================================================

The engine state already reflects each effect when it is emitted; adapters
only mirror the world, they never answer back.  What the protocol does *per
message* is not in the table: it is a synchronous call on a *port*, a host
object the engine holds.  Sending an envelope and recording a trace event are
``engine.host.send(envelope)`` / ``engine.host.trace(kind, fields)``
(:class:`repro.core.engine.Host`); stable storage, like the hosted
application, is a port because rule 3 has to read it back
(:class:`~repro.stable.checkpoint.CheckpointStore` writes each checkpoint
transition through, the commit set is a ``put`` and the Section 6 decision
log an ``append``).  The six effects remain effects only because the
end-to-end ruler's span boundaries are frozen by name on ``handle`` and the
adapter's effect interpreter (DESIGN.md section 11).
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.compat import slotted_dataclass
from repro.net.message import Envelope
from repro.priorities import PRIORITY_TIMER
from repro.types import ProcessId, Seq, SimTime, TreeId


@slotted_dataclass(frozen=True)
class Broadcast:
    """Send control ``body`` to every live peer (Section 6 inquiries)."""

    body: Any


@slotted_dataclass(frozen=True)
class SetTimer:
    """Arm the named timer; the adapter replaces an existing one.

    ``jitter`` is ``(stream_name, lo, hi)``: the adapter adds a uniform draw
    from the kernel's named RNG stream to ``delay``, keeping the engine free
    of randomness while reproducing the seeded behaviour exactly.
    """

    name: str
    delay: SimTime
    priority: int = PRIORITY_TIMER
    jitter: Optional[Tuple[str, float, float]] = None


@slotted_dataclass(frozen=True)
class CancelTimer:
    """Cancel the named timer if pending."""

    name: str


@slotted_dataclass(frozen=True)
class ObserveDecision:
    """Expose a (kind, tree) decision to the spooler replicas (rule 3)."""

    kind: str
    tree: Optional[TreeId]


@slotted_dataclass(frozen=True)
class Redeliver:
    """Synchronously re-inject a spooled envelope into this process."""

    envelope: Envelope


@slotted_dataclass(frozen=True)
class Handoff:
    """Hand the departing engine's checkpoint obligations to ``successor``.

    Emitted while handling a :class:`repro.core.events.Leave` addressed to
    this engine.  The adapter wraps the payload into a
    :class:`repro.core.messages.HandoffMsg` control message and transmits it
    to ``successor`` over the ordinary network path, so the handoff is
    wire-serializable and crosses shard links like any other control
    traffic.

    ``commit_set`` — trees the departing pid's uncommitted checkpoint was a
    member of; ``decisions`` — the ``(tree, decision)`` log so the successor
    can answer rule-6 inquiries on the departed pid's behalf;
    ``uncommitted_seq`` — the seq of the departed pid's (now aborted)
    uncommitted checkpoint, if any; ``spooled`` — ``(src, label)``
    summaries of the dead letters drained from its spooler group.
    """

    successor: ProcessId
    source: ProcessId
    commit_set: Tuple[TreeId, ...] = ()
    decisions: Tuple[Tuple[TreeId, str], ...] = ()
    uncommitted_seq: Optional[Seq] = None
    spooled: Tuple[Tuple[ProcessId, Optional[int]], ...] = ()


Effect = Any  # any of the classes above; kept loose for Python 3.9

__all__ = [
    "Broadcast",
    "CancelTimer",
    "Effect",
    "Handoff",
    "ObserveDecision",
    "Redeliver",
    "SetTimer",
]
