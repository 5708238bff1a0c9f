"""`TraceIndex` — the *index* layer of the observability stack.

A :class:`TraceIndex` is a query view over one in-memory record store, an
:class:`~repro.sim.trace.InMemorySink`: it keeps record *positions*, never
a second copy of the records, so every consumer in :mod:`repro.analysis`
answers its queries in O(matches) instead of re-scanning the whole trace:

* positions per kind and per ``(pid, kind)`` (``by_kind``, ``for_process``);
* send ↔ receive matching keyed by ``(sender pid, send index)``
  (``send_of`` / ``receive_of``);
* per-process *manifest reconstruction*: live send/receive sets and the
  manifests of committed checkpoints, derived purely from the trace — the
  trace-based consistency checkers
  (:func:`repro.analysis.consistency.check_c1_from_trace`) and the domino
  analysis (:func:`repro.analysis.domino.histories_from_trace`) read these.

Each query first catches up on the records appended since the last one, in
one pass over their kinds and pids that reads ``fields`` only for the seven
kinds the manifests fold, and builds only the :class:`TraceEvent`\\ s it
returns.  ``sim.trace.index`` is the view over a run's store;
:meth:`TraceIndex.from_jsonl_files` builds one over streamed JSONL files.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro import tracekinds as T
from repro.sim.trace import InMemorySink, TraceEvent, load_jsonl
from repro.types import ProcessId, Seq

@dataclass(frozen=True)
class ManifestView:
    """Trace-derived manifest of one committed checkpoint.

    ``recv`` holds ``(src, send_index)`` keys of the live receives the
    snapshotted state reflects; ``sent`` holds ``(dst, send_index)`` keys of
    its live sends — the exact shape of the ``meta["recv"]``/``meta["sent"]``
    manifests the protocol stores on real checkpoints, so the two can be
    compared element-for-element.
    """

    seq: Seq
    recv: FrozenSet[Tuple[ProcessId, Any]]
    sent: FrozenSet[Tuple[ProcessId, Any]]


BIRTH_SEQ = 1  # every process installs a committed birth checkpoint at seq 1

#: The kinds whose fields the manifest shadow folds; the catch-up pass reads
#: no other record's fields.
_MANIFEST_KINDS = frozenset({
    T.K_SEND, T.K_RECEIVE, T.K_UNDO_SEND, T.K_UNDO_RECEIVE,
    T.K_CHKPT_TENTATIVE, T.K_CHKPT_COMMIT, T.K_CHKPT_ABORT,
})


class _ProcessState:
    """Incremental per-process ledger shadow (manifest reconstruction)."""

    __slots__ = ("sends", "receives", "pending", "committed")

    def __init__(self) -> None:
        # send index -> (dst, live); receive (src, idx) -> live.
        self.sends: Dict[Any, Tuple[ProcessId, bool]] = {}
        self.receives: Dict[Tuple[ProcessId, Any], bool] = {}
        # Tentative-checkpoint manifests awaiting commit/abort, by seq.
        self.pending: Dict[Seq, ManifestView] = {}
        # Committed manifests in commit order (birth checkpoint implicit).
        self.committed: List[ManifestView] = []

    def manifest(self, seq: Seq) -> ManifestView:
        return ManifestView(
            seq=seq,
            recv=frozenset(key for key, live in self.receives.items() if live),
            sent=frozenset(
                (dst, idx) for idx, (dst, live) in self.sends.items() if live
            ),
        )


def _send_index(msg_id: Any) -> Any:
    """The per-sender send index of a message id (raw ids pass through)."""
    return getattr(msg_id, "send_index", msg_id)


def _msg_key(msg_id: Any) -> Any:
    """Normalise a message identity to a hashable matching key."""
    sender = getattr(msg_id, "sender", None)
    if sender is None:
        return msg_id
    return (sender, msg_id.send_index)


class TraceIndex:
    """Query view over one :class:`~repro.sim.trace.InMemorySink`'s records."""

    @classmethod
    def from_jsonl_files(cls, paths: Iterable[str]) -> "TraceIndex":
        """Stitch per-node :class:`~repro.sim.trace.JsonlStreamSink` files
        into one index.

        A live cluster streams each process's events to its own JSONL file,
        so no single file is globally ordered.  Events are merged by
        ``(time, original index, file position)`` — time first (the global
        order of a live run), original emit index as the same-instant
        tiebreak (exact for files that share one emitting trace, and a
        deterministic convention for files from independent traces whose
        clocks may disagree) — then renumbered 0..N-1 into a fresh store, so
        downstream consumers see a dense, ordered stream, exactly as if one
        trace had recorded everything.

        Shard files are read tolerantly: a final line cut mid-record (the
        partial flush a killed shard leaves behind) is skipped, and the
        number of such dropped tail lines is exposed as
        ``truncated_lines`` on the returned index so the loss is visible
        to whoever interprets the merged analysis.
        """
        keyed: List[Tuple[float, int, int, TraceEvent]] = []
        position = 0
        truncated = 0
        for path in paths:
            events, dropped = load_jsonl(path)
            truncated += dropped
            for event in events:
                keyed.append((event.time, event.index, position, event))
                position += 1
        keyed.sort(key=lambda entry: entry[:3])
        store = InMemorySink()
        for new_index, (_, _, _, event) in enumerate(keyed):
            event.index = new_index
            store.emit(event)
        index = cls(store)
        index.truncated_lines = truncated
        return index

    def __init__(self, store: InMemorySink) -> None:
        self._store = store
        # Tail lines dropped by from_jsonl_files (partial flushes of killed
        # shards); 0 for indexes over a run's own store.
        self.truncated_lines = 0
        self._seen = 0  # records folded into the tables below
        self._by_kind: Dict[str, List[int]] = {}
        self._by_pid_kind: Dict[Tuple[ProcessId, str], List[int]] = {}
        self._send_by_key: Dict[Any, int] = {}
        self._receive_by_key: Dict[Any, int] = {}
        self._proc: Dict[ProcessId, _ProcessState] = {}

    @property
    def events_indexed(self) -> int:
        """Number of records in the store; every query sees all of them."""
        return len(self._store)

    # ------------------------------------------------------------------
    # Catch-up (one pass over the records appended since the last query)
    # ------------------------------------------------------------------
    def _catch_up(self) -> None:
        store = self._store
        start, stop = self._seen, len(store)
        if start == stop:
            return
        self._seen = stop
        by_kind, by_pid_kind = self._by_kind, self._by_pid_kind
        fields = store.fields
        for i, kind, pid in zip(range(start, stop), store.kinds[start:], store.pids[start:]):
            positions = by_kind.get(kind)
            if positions is None:
                positions = by_kind[kind] = []
            positions.append(i)
            if pid is None:
                continue
            positions = by_pid_kind.get((pid, kind))
            if positions is None:
                positions = by_pid_kind[(pid, kind)] = []
            positions.append(i)
            if kind in _MANIFEST_KINDS:
                self._fold(i, kind, pid, fields[i])

    def _fold(self, i: int, kind: str, pid: ProcessId, fields: Dict[str, Any]) -> None:
        """Apply record ``i`` to the send/receive maps and ``pid``'s ledger shadow."""
        state = self._proc.get(pid)
        if state is None:
            state = self._proc[pid] = _ProcessState()
        if kind == T.K_SEND:
            msg_id = fields["msg_id"]
            self._send_by_key[_msg_key(msg_id)] = i
            state.sends[_send_index(msg_id)] = (fields["dst"], True)
        elif kind == T.K_RECEIVE:
            msg_id = fields["msg_id"]
            self._receive_by_key[_msg_key(msg_id)] = i
            state.receives[(fields["src"], _send_index(msg_id))] = True
        elif kind == T.K_UNDO_SEND:
            idx = _send_index(fields["msg_id"])
            dst, _live = state.sends.get(idx, (fields.get("dst"), True))
            state.sends[idx] = (dst, False)
        elif kind == T.K_UNDO_RECEIVE:
            state.receives[(fields["src"], _send_index(fields["msg_id"]))] = False
        elif kind == T.K_CHKPT_TENTATIVE:
            seq = fields["seq"]
            state.pending[seq] = state.manifest(seq)
        elif kind == T.K_CHKPT_COMMIT:
            seq = fields["seq"]
            # Fall back to a commit-time snapshot for protocols that commit
            # without a traced tentative step.
            view = state.pending.pop(seq, None) or state.manifest(seq)
            state.committed.append(view)
        else:  # T.K_CHKPT_ABORT
            state.pending.pop(fields["seq"], None)

    def _positions(self, table: Dict[Any, List[int]], keys: Sequence[Any]) -> Sequence[int]:
        """Positions under ``keys`` of ``table``, in trace order."""
        self._catch_up()
        if len(keys) == 1:
            return table.get(keys[0], ())
        return sorted(chain.from_iterable(map(table.get, keys, repeat(()))))

    # ------------------------------------------------------------------
    # Event queries
    # ------------------------------------------------------------------
    def by_kind(self, *kinds: str) -> List[TraceEvent]:
        """All records of the given kinds, in trace order — O(matches)."""
        return list(map(self._store.event, self._positions(self._by_kind, kinds)))

    def count(self, *kinds: str) -> int:
        """Number of records of the given kinds — O(1) per kind."""
        self._catch_up()
        return sum(len(self._by_kind.get(kind, ())) for kind in kinds)

    def for_process(self, pid: ProcessId, *kinds: str) -> List[TraceEvent]:
        """Records of ``pid``, optionally restricted to ``kinds``."""
        self._catch_up()
        keys = [(pid, kind) for kind in (kinds or self._by_kind)]
        return list(map(self._store.event, self._positions(self._by_pid_kind, keys)))

    def last_of(self, kind: str, pid: Optional[ProcessId] = None) -> Optional[TraceEvent]:
        """Most recent record of ``kind`` (for ``pid`` if given), or None."""
        table, key = (self._by_kind, kind) if pid is None else (self._by_pid_kind, (pid, kind))
        positions = self._positions(table, [key])
        return self._store.event(positions[-1]) if positions else None

    def pids(self) -> List[ProcessId]:
        """Every process id that has emitted at least one event."""
        self._catch_up()
        return sorted({pid for pid, _kind in self._by_pid_kind})

    def kinds(self) -> List[str]:
        self._catch_up()
        return sorted(self._by_kind)

    # ------------------------------------------------------------------
    # Send/receive matching
    # ------------------------------------------------------------------
    def _matched(self, table: Dict[Any, int], msg_id: Any) -> Optional[TraceEvent]:
        self._catch_up()
        position = table.get(_msg_key(msg_id))
        return None if position is None else self._store.event(position)

    def send_of(self, msg_id: Any) -> Optional[TraceEvent]:
        """The send event of a message — O(1)."""
        return self._matched(self._send_by_key, msg_id)

    def receive_of(self, msg_id: Any) -> Optional[TraceEvent]:
        """The receive event of a message, if delivered and accepted — O(1)."""
        return self._matched(self._receive_by_key, msg_id)

    def send_is_live(self, sender: ProcessId, send_index: Any) -> Optional[bool]:
        """Whether send ``(sender, send_index)`` is live (None if untraced)."""
        self._catch_up()
        state = self._proc.get(sender)
        if state is None:
            return None
        entry = state.sends.get(send_index)
        return None if entry is None else entry[1]

    def live_receives(self, pid: ProcessId) -> List[Tuple[ProcessId, Any]]:
        """``(src, send_index)`` keys of ``pid``'s live (not undone) receives."""
        self._catch_up()
        state = self._proc.get(pid)
        if state is None:
            return []
        return sorted(key for key, live in state.receives.items() if live)

    # ------------------------------------------------------------------
    # Manifest reconstruction
    # ------------------------------------------------------------------
    def committed_manifests(self, pid: ProcessId) -> List[ManifestView]:
        """Trace-derived manifests of ``pid``'s committed checkpoints.

        The implicit birth checkpoint (seq 1, empty manifests) leads the
        list, mirroring ``CheckpointProcess.committed_history``.
        """
        self._catch_up()
        birth = ManifestView(seq=BIRTH_SEQ, recv=frozenset(), sent=frozenset())
        state = self._proc.get(pid)
        if state is None:
            return [birth]
        return [birth] + list(state.committed)

    def last_committed_manifest(self, pid: ProcessId) -> ManifestView:
        """The manifest of ``pid``'s newest committed checkpoint."""
        return self.committed_manifests(pid)[-1]


def as_index(source) -> TraceIndex:
    """Coerce a :class:`~repro.sim.trace.Trace` or index to a TraceIndex."""
    if isinstance(source, TraceIndex):
        return source
    return source.index
