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
``SaveCheckpoint``        write a checkpoint to stable storage ("initial"
                          committed slot, uncommitted "new" slot, or a stack
                          "push" for the Section 3.5.3 extension)
``CommitThrough``         promote the uncommitted checkpoint (slot commit, or
                          stack commit-through-``seq``)
``DiscardCheckpoints``    drop uncommitted checkpoints (slot discard, or
                          stack discard-from-``from_seq``)
``PersistMeta``           persist small protocol metadata (the recoverable
                          commit set of Section 6) by overwriting its key
``AppendLog``             append one record to a stable log key (the
                          Section 6 decision log: one record per decision)
``ObserveDecision``       let the spooler replicas record a decision
``Redeliver``             synchronously re-inject a spooled envelope
``Rollback``              informational: the state was restored to ``to_seq``
                          (no kernel action; consumed by analysis harnesses)
``Handoff``               wrap the departing engine's obligations into a
                          ``HandoffMsg`` control message to its successor
========================  ====================================================

The engine state already reflects each effect when it is emitted; adapters
only mirror the world, they never answer back.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.compat import slotted_dataclass
from repro.net.message import Envelope
from repro.priorities import PRIORITY_TIMER
from repro.types import ProcessId, Seq, SimTime, TreeId

#: SaveCheckpoint/CommitThrough/DiscardCheckpoints target the two-slot store
#: of the base algorithm ("slot") or the pending stack of the extension
#: ("stack").
SLOT = "slot"
STACK = "stack"


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
class SaveCheckpoint:
    """Write a checkpoint record to stable storage.

    ``kind`` — "initial" (committed birth checkpoint), "new" (the two-slot
    uncommitted ``newchkpt``) or "push" (extension stack entry).
    """

    kind: str
    seq: Seq
    state: Any
    made_at: SimTime
    meta: Dict[str, Any]
    store: str = SLOT


@slotted_dataclass(frozen=True)
class CommitThrough:
    """``oldchkpt := newchkpt`` (slot), or commit the stack through ``seq``."""

    seq: Seq
    store: str = SLOT


@slotted_dataclass(frozen=True)
class DiscardCheckpoints:
    """Discard the uncommitted slot, or stack entries with seq >= from_seq."""

    from_seq: Optional[Seq] = None
    store: str = SLOT


@slotted_dataclass(frozen=True)
class PersistMeta:
    """Persist a small metadata value under ``key`` ("commit_set" etc.)."""

    key: str
    value: Any


@slotted_dataclass(frozen=True)
class AppendLog:
    """Append ``record`` to the stable log ``key`` ("decisions").

    Unlike :class:`PersistMeta` the effect carries only what is new, so its
    cost does not grow with the history already persisted.
    """

    key: str
    record: Any


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
class Rollback:
    """The engine restored its application state to checkpoint ``to_seq``."""

    to_seq: Seq
    tree: Optional[TreeId] = None


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
    "AppendLog",
    "Broadcast",
    "CancelTimer",
    "CommitThrough",
    "DiscardCheckpoints",
    "Effect",
    "EmitTrace",
    "Handoff",
    "ObserveDecision",
    "PersistMeta",
    "Redeliver",
    "Rollback",
    "SLOT",
    "STACK",
    "SaveCheckpoint",
    "Send",
    "SetTimer",
]
