"""Shared primitive types used across the :mod:`repro` packages.

The protocol literature indexes everything by process, interval and instance;
these aliases and small value types keep signatures readable and give the
type-checker something to hold on to.

Terminology (paper Section 2 and 3):

* ``ProcessId`` — the index *i* of a process ``P_i``.
* ``Label`` — the interval number ``n_i`` attached to each outgoing normal
  message; a message sent within the interval ``[n, n+1]`` carries label ``n``.
* ``Seq`` — the sequence number of a checkpoint or rollback point
  (``seqof(C_i)`` in the paper).
* ``TreeId`` — the globally unique timestamp ``t = (i, initiation time)`` of a
  checkpoint tree or rollback tree ``T(t)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

ProcessId = int
Label = int
Seq = int
SimTime = float


@dataclass(frozen=True, order=True)
class TreeId:
    """Globally unique timestamp of a checkpoint or rollback tree ``T(t)``.

    The paper identifies each instance by the pair *(initiator index,
    initiation time)*.  In the simulator two initiations could share a wall
    clock instant, so we use a per-process monotonically increasing
    ``initiation_seq`` instead of raw time: the pair is still unique and
    still totally ordered per initiator, which is all the algorithm needs.
    """

    initiator: ProcessId
    initiation_seq: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"T(P{self.initiator}@{self.initiation_seq})"


@dataclass(frozen=True)
class MessageId:
    """Unique identity of a single normal-message send event.

    ``sender``/``send_index`` make the id stable and readable in traces; the
    happens-before analysis keys its send/receive matching on this.
    """

    sender: ProcessId
    send_index: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"m(P{self.sender}#{self.send_index})"


@dataclass
class CheckpointRecord:
    """A single saved checkpoint: application state plus its sequence number.

    ``state`` is an opaque, already-copied snapshot of the application state.
    ``seq`` is ``seqof(C)`` from the paper.  ``committed`` distinguishes the
    tentative ``newchkpt`` from the durable ``oldchkpt``; ``made_at`` is the
    simulation time of the checkpoint event (used only by analysis/plots).
    """

    seq: Seq
    state: Any
    committed: bool = False
    made_at: SimTime = 0.0
    meta: Dict[str, Any] = field(default_factory=dict)

    def copy(self) -> "CheckpointRecord":
        """Return a shallow copy (state snapshots are immutable by contract)."""
        return CheckpointRecord(
            seq=self.seq,
            state=self.state,
            committed=self.committed,
            made_at=self.made_at,
            meta=dict(self.meta),
        )
