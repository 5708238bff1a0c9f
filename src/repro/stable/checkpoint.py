"""The ``oldchkpt`` / ``newchkpt`` checkpoint slot pair (paper Section 3).

"Each process saves at most two most recent checkpoints (called *oldchkpt*
and *newchkpt*) in stable storage.  *newchkpt* is an uncommitted checkpoint.
*oldchkpt* represents the latest version of the committed checkpoint."

:class:`CheckpointStore` is the one record of those checkpoints: the protocol
engine owns it, the checkers read it, and it writes every transition through
to the :class:`~repro.stable.storage.StableStorage` it wraps.  It exposes
exactly the operations the algorithm performs:

* :meth:`take_new` — write an uncommitted ``newchkpt``;
* :meth:`commit_new` — ``oldchkpt := newchkpt; newchkpt := nil``;
* :meth:`discard_new` — ``newchkpt := nil`` (abort);
* the :attr:`oldchkpt` / :attr:`newchkpt` records.

The Section 3.5.3 extension needs a *stack* of uncommitted checkpoints
(``newchkpt_a .. newchkpt_l``); :class:`MultiCheckpointStore` provides that
generalisation while keeping the same committed-slot semantics.

Fast paths
----------
Records live in memory: a store loads what its storage holds once, at
construction (a process restarted over the storage of an earlier run picks up
where that run stopped), and serves every read from those records — the b1
guards and fan-outs that consult the slots never touch the backend.  Every
transition is written through with ``put``/``delete`` before the in-memory
record changes.  A commit *promotes the stored record* (``get`` the pending
entry, ``put`` it under the committed key with ``committed`` set) instead of
re-encoding the in-memory one, so the in-memory backend re-freezes nothing —
the state it froze at ``take_new`` passes through — and the multi-store keeps
one storage record per pending checkpoint, so pushing, committing or
discarding touches only the affected stack entries.
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


def _promote(storage: StableStorage, pending_key: str, old_key: str) -> None:
    """Commit on storage: the stored pending record becomes ``oldchkpt``."""
    storage.put(old_key, {**storage.get(pending_key), "committed": True})


class CheckpointStore:
    """Two-slot stable checkpoint storage for one process."""

    def __init__(self, storage: Optional[StableStorage] = None, namespace: str = "ckpt") -> None:
        self._storage = storage or InMemoryStableStorage()
        self._old_key = f"{namespace}.old"
        self._new_key = f"{namespace}.new"
        #: The latest committed checkpoint, or ``None`` before the first.
        self.oldchkpt = _decode(self._storage.get(self._old_key))
        #: The pending uncommitted checkpoint, or ``None``.
        self.newchkpt = _decode(self._storage.get(self._new_key))

    @property
    def has_new(self) -> bool:
        """``newchkpt != nil``."""
        return self.newchkpt is not None

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
        self._storage.delete(self._new_key)
        self.oldchkpt, self.newchkpt = record, None
        return record

    def take_new(self, seq: Seq, state: Any, made_at: SimTime = 0.0, **meta: Any) -> CheckpointRecord:
        """Write the uncommitted ``newchkpt`` (fails if one is pending)."""
        if self.newchkpt is not None:
            raise StableStorageError("newchkpt already exists; commit or discard it first")
        record = CheckpointRecord(seq=seq, state=state, committed=False, made_at=made_at, meta=meta)
        self._storage.put(self._new_key, _encode(record))
        self.newchkpt = record
        return record

    def commit_new(self) -> CheckpointRecord:
        """``oldchkpt := newchkpt; newchkpt := nil``; returns the new oldchkpt."""
        pending = self.newchkpt
        if pending is None:
            raise StableStorageError("no newchkpt to commit")
        _promote(self._storage, self._new_key, self._old_key)
        self._storage.delete(self._new_key)
        pending.committed = True
        self.oldchkpt, self.newchkpt = pending, None
        return pending

    def discard_new(self) -> None:
        """``newchkpt := nil`` (abort); no-op if none pending."""
        self._storage.delete(self._new_key)
        self.newchkpt = None


class MultiCheckpointStore:
    """Stack of uncommitted checkpoints for the Section 3.5.3 extension.

    Uncommitted checkpoints ``newchkpt_a .. newchkpt_l`` are kept in creation
    order.  Committing checkpoint ``h`` promotes it to ``oldchkpt`` and
    discards ``a .. h`` (they are all older and now superseded), matching the
    paper: "when newchkpt_a .. newchkpt_h all commit, oldchkpt is updated
    with the value of newchkpt_h, and newchkpt_a .. newchkpt_h are
    discarded."  (We commit on the first decision for ``h`` since each commit
    decision certifies the consistency of everything up to ``h``.)

    Storage layout: ``<ns>.old`` (committed slot), ``<ns>.pending`` (the
    stack *index* — just the sequence numbers, oldest first) and one
    ``<ns>.pending.<seq>`` record per uncommitted checkpoint, so stack
    operations re-serialise only the entries they actually touch.
    """

    def __init__(self, storage: Optional[StableStorage] = None, namespace: str = "ckpt") -> None:
        self._storage = storage or InMemoryStableStorage()
        self._ns = namespace
        self._old_key = f"{namespace}.old"
        self._index_key = f"{namespace}.pending"
        self.oldchkpt = _decode(self._storage.get(self._old_key))
        self._pending: List[CheckpointRecord] = []
        for seq in self._storage.get(self._index_key, ()):
            record = _decode(self._storage.get(self._entry_key(seq)))
            if record is None:
                raise StableStorageError(f"pending checkpoint record {seq} missing from storage")
            self._pending.append(record)

    def _entry_key(self, seq: Seq) -> str:
        return f"{self._ns}.pending.{seq}"

    # -- accessors -------------------------------------------------------
    @property
    def pending(self) -> List[CheckpointRecord]:
        """Uncommitted checkpoints, oldest first."""
        return list(self._pending)

    @property
    def pending_seqs(self) -> List[Seq]:
        """Sequence numbers of the uncommitted checkpoints, oldest first."""
        return [r.seq for r in self._pending]

    @property
    def pending_count(self) -> int:
        """Depth of the uncommitted stack."""
        return len(self._pending)

    @property
    def newest(self) -> Optional[CheckpointRecord]:
        """The most recent uncommitted checkpoint (``newchkpt_l``), if any."""
        return self._pending[-1] if self._pending else None

    def find(self, seq: Seq) -> Optional[CheckpointRecord]:
        """The pending checkpoint with sequence number ``seq``, if any."""
        for record in self._pending:
            if record.seq == seq:
                return record
        return None

    # -- transitions -----------------------------------------------------
    def _set_pending(self, keep: List[CheckpointRecord]) -> None:
        """Shrink the stack to ``keep``: drop the other entries, rewrite the index."""
        kept = {r.seq for r in keep}
        for record in self._pending:
            if record.seq not in kept:
                self._storage.delete(self._entry_key(record.seq))
        self._storage.put(self._index_key, [r.seq for r in keep])
        self._pending = keep

    def initialize(
        self, state: Any, made_at: SimTime = 0.0, seq: Seq = 1, meta: Optional[Dict[str, Any]] = None
    ) -> CheckpointRecord:
        record = CheckpointRecord(
            seq=seq, state=state, committed=True, made_at=made_at, meta=dict(meta or {})
        )
        self._storage.put(self._old_key, _encode(record))
        self._set_pending([])
        self.oldchkpt = record
        return record

    def push(self, seq: Seq, state: Any, made_at: SimTime = 0.0, **meta: Any) -> CheckpointRecord:
        """Append a new uncommitted checkpoint (must be newer than the last).

        Touches exactly one entry record plus the (tiny) stack index; the
        existing entries are not re-serialised.
        """
        if self._pending and seq <= self._pending[-1].seq:
            raise StableStorageError(
                f"checkpoint seq {seq} not newer than pending seq {self._pending[-1].seq}"
            )
        record = CheckpointRecord(seq=seq, state=state, committed=False, made_at=made_at, meta=meta)
        self._storage.put(self._entry_key(seq), _encode(record))
        self._storage.put(self._index_key, self.pending_seqs + [seq])
        self._pending.append(record)
        return record

    def commit_through(self, seq: Seq) -> CheckpointRecord:
        """Commit the pending checkpoint with ``seq`` and discard older ones."""
        target = self.find(seq)
        if target is None:
            raise StableStorageError(f"no pending checkpoint with seq {seq}")
        _promote(self._storage, self._entry_key(seq), self._old_key)
        self._set_pending([r for r in self._pending if r.seq > seq])
        target.committed = True
        self.oldchkpt = target
        return target

    def discard_from(self, seq: Seq) -> List[CheckpointRecord]:
        """Discard the pending checkpoint with ``seq`` and everything newer.

        Used by the extension's rollback cases 2.1/2.2, which abort
        ``newchkpt_h .. newchkpt_l``.  Returns the discarded records.
        """
        dropped = [r for r in self._pending if r.seq >= seq]
        self._set_pending([r for r in self._pending if r.seq < seq])
        return dropped

    def discard_all(self) -> List[CheckpointRecord]:
        """Discard every pending checkpoint."""
        return self.discard_from(0)
