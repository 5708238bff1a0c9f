"""Typed output effects emitted by the sans-IO protocol engine.

Every externally visible action of the protocol is one of these values.  An
adapter interprets each effect against its kernel:

========================  ====================================================
effect                    simulation / live-runtime interpretation
========================  ====================================================
``Send``                  hand the envelope to the network
``Broadcast``             expand ``body`` into one control send per live peer
``SetTimer``              arm a named, cancellable timer (optionally with an
                          RNG-jittered delay drawn from the kernel's seeded
                          stream); fire back a ``TimerFired`` event
``CancelTimer``           cancel the named timer
``EmitTrace``             record a trace event (the adapter stamps the kernel
                          time and this process's pid)
``ObserveDecision``       let the spooler replicas record a decision
``Redeliver``             synchronously re-inject a spooled envelope
``Handoff``               wrap the departing engine's obligations into a
                          ``HandoffMsg`` control message to its successor
========================  ====================================================

The engine state already reflects each effect when it is emitted; adapters
only mirror the world, they never answer back.  Stable storage is not in the
table: like the hosted application it is a *port* — a host object the engine
holds and calls synchronously (:class:`~repro.stable.checkpoint.CheckpointStore`
writes each checkpoint transition through, the commit set is a ``put`` and the
Section 6 decision log an ``append``) — because rule 3 has to read it back.
An effect is for what needs a clock, a network, an RNG or a trace sink.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.compat import slotted_dataclass
from repro.net.message import Envelope
from repro.priorities import PRIORITY_TIMER
from repro.types import ProcessId, Seq, SimTime, TreeId


@slotted_dataclass(frozen=True)
class Send:
    """Transmit ``envelope`` over the network."""

    envelope: Envelope


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
class EmitTrace:
    """Record a trace event of ``kind`` with ``fields``.

    The adapter supplies the two kernel-owned fields: the current time and
    this process's pid.
    """

    kind: str
    fields: Dict[str, Any]


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
    "EmitTrace",
    "Handoff",
    "ObserveDecision",
    "Redeliver",
    "Send",
    "SetTimer",
]
