"""The ``oldchkpt`` / ``newchkpt`` checkpoints of one process (paper Section 3).

"Each process saves at most two most recent checkpoints (called *oldchkpt*
and *newchkpt*) in stable storage.  *newchkpt* is an uncommitted checkpoint.
*oldchkpt* represents the latest version of the committed checkpoint."

Section 3.5.3 generalises *newchkpt* to a stack of uncommitted checkpoints
``newchkpt_a .. newchkpt_l``; the base algorithm is that stack at depth one.
:class:`CheckpointStore` is the one record of those checkpoints for both: the
protocol engine owns it, the checkers read it, and it writes every transition
through to the :class:`~repro.stable.storage.StableStorage` it wraps.  It
exposes exactly the operations the algorithms perform:

* :meth:`take_new` — push an uncommitted checkpoint (the new ``newchkpt``);
* :meth:`commit_through` — ``oldchkpt := newchkpt_h``, discarding
  ``newchkpt_a .. newchkpt_h``;
* :meth:`discard` — abort one uncommitted checkpoint;
* the :attr:`oldchkpt` record and the :attr:`pending` stack, whose newest
  entry is :attr:`newchkpt`.

Layout and fast paths
---------------------
On storage a store is ``<ns>.old`` plus one ``<ns>.new.<seq>`` record per
pending checkpoint, and no index: a store finds its pending records by
listing the storage's keys once, at construction (a process restarted over
the storage of an earlier run picks up where that run stopped), and serves
every read from memory — the b1 guards and fan-outs that consult the
checkpoints never touch the backend.  Every transition is written through
with ``put``/``delete`` before the in-memory records change, and touches only
the keys of the checkpoints it changes.  A commit *promotes the stored
record* (``get`` the pending entry, ``put`` it under ``<ns>.old`` with
``committed`` set) instead of re-encoding the in-memory one, so the in-memory
backend re-freezes nothing — the state it froze at ``take_new`` passes
through — and only then deletes the pending entries.  A commit interrupted
between the two leaves a pending record no newer than ``oldchkpt``; loading
drops and deletes it, so a committed checkpoint never comes back as
``newchkpt``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import StableStorageError
from repro.stable.storage import InMemoryStableStorage, StableStorage
from repro.types import CheckpointRecord, Seq, SimTime


def _encode(record: CheckpointRecord) -> dict:
    return {
        "seq": record.seq,
        "state": record.state,
        "committed": record.committed,
        "made_at": record.made_at,
        "meta": record.meta,
    }


def _decode(raw: Optional[dict]) -> Optional[CheckpointRecord]:
    if raw is None:
        return None
    return CheckpointRecord(
        seq=raw["seq"],
        state=raw["state"],
        committed=raw["committed"],
        made_at=raw["made_at"],
        meta=raw.get("meta", {}),
    )


class CheckpointStore:
    """``oldchkpt`` and the stack of uncommitted checkpoints of one process."""

    def __init__(self, storage: Optional[StableStorage] = None, namespace: str = "ckpt") -> None:
        self._storage = storage or InMemoryStableStorage()
        self._old_key = f"{namespace}.old"
        self._new_prefix = f"{namespace}.new."
        #: The latest committed checkpoint, or ``None`` before the first.
        self.oldchkpt = _decode(self._storage.get(self._old_key))
        #: Uncommitted checkpoints, oldest first (read-only for callers).
        self.pending: List[CheckpointRecord] = []
        committed = self.oldchkpt.seq if self.oldchkpt is not None else 0
        for key in [k for k in self._storage.keys() if k.startswith(self._new_prefix)]:
            record = _decode(self._storage.get(key))
            if record.seq <= committed:
                self._storage.delete(key)  # left behind by an interrupted commit
            else:
                self.pending.append(record)
        self.pending.sort(key=lambda record: record.seq)

    def _new_key(self, seq: Seq) -> str:
        return f"{self._new_prefix}{seq}"

    @property
    def newchkpt(self) -> Optional[CheckpointRecord]:
        """The newest uncommitted checkpoint (``newchkpt_l``), or ``None``."""
        return self.pending[-1] if self.pending else None

    @property
    def has_new(self) -> bool:
        """``newchkpt != nil``."""
        return bool(self.pending)

    # -- transitions -----------------------------------------------------
    def initialize(
        self, state: Any, made_at: SimTime = 0.0, seq: Seq = 1, meta: Optional[Dict[str, Any]] = None
    ) -> CheckpointRecord:
        """Install the initial committed checkpoint (process birth).

        The paper's processes always have a committed checkpoint to fall back
        to; we model process start as an implicit committed checkpoint of the
        initial state.  Its sequence number defaults to 1, matching the
        paper's figures (message labels then start at 1, keeping label 0
        free as the "no messages received" sentinel for ``max_ij``).
        """
        record = CheckpointRecord(
            seq=seq, state=state, committed=True, made_at=made_at, meta=dict(meta or {})
        )
        self._storage.put(self._old_key, _encode(record))
        for stale in self.pending:
            self._storage.delete(self._new_key(stale.seq))
        self.oldchkpt, self.pending = record, []
        return record

    def take_new(self, seq: Seq, state: Any, made_at: SimTime = 0.0, **meta: Any) -> CheckpointRecord:
        """Push an uncommitted checkpoint; ``seq`` must be newer than ``newchkpt``."""
        if self.pending and seq <= self.pending[-1].seq:
            raise StableStorageError(
                f"checkpoint seq {seq} not newer than pending seq {self.pending[-1].seq}"
            )
        record = CheckpointRecord(seq=seq, state=state, committed=False, made_at=made_at, meta=meta)
        self._storage.put(self._new_key(seq), _encode(record))
        self.pending.append(record)
        return record

    def commit_through(self, seq: Seq) -> CheckpointRecord:
        """Commit pending checkpoint ``seq``; it and every older one leave the stack.

        "When newchkpt_a .. newchkpt_h all commit, oldchkpt is updated with
        the value of newchkpt_h, and newchkpt_a .. newchkpt_h are discarded"
        (Section 3.5.3); the base algorithm commits its only one.
        """
        done = [record for record in self.pending if record.seq <= seq]
        if not done or done[-1].seq != seq:
            raise StableStorageError(f"no pending checkpoint with seq {seq}")
        target = done[-1]
        promoted = {**self._storage.get(self._new_key(seq)), "committed": True}
        self._storage.put(self._old_key, promoted)
        for record in done:
            self._storage.delete(self._new_key(record.seq))
        target.committed = True
        self.oldchkpt = target
        del self.pending[:len(done)]
        return target

    def discard(self, seq: Seq) -> Optional[CheckpointRecord]:
        """Abort pending checkpoint ``seq`` alone; returns it (``None`` if absent)."""
        for index, record in enumerate(self.pending):
            if record.seq == seq:
                self._storage.delete(self._new_key(seq))
                return self.pending.pop(index)
        return None
