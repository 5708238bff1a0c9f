"""`TraceIndex` — the *index* layer of the observability stack.

A :class:`TraceIndex` is a :class:`~repro.sim.trace.TraceSink` that keeps
incremental lookup structures over the event stream, so every consumer in
:mod:`repro.analysis` answers its queries in O(matches) instead of
re-scanning the whole trace front-to-back:

* per-kind and per-process event lists (``by_kind``, ``for_process``);
* send ↔ receive matching keyed by ``(sender pid, send index)``
  (``send_of`` / ``receive_of``);
* tree-id → lifecycle events (``tree_events``) feeding
  :func:`repro.analysis.tree_view.reconstruct_trees`;
* per-process *manifest reconstruction*: live send/receive sets and the
  manifests of committed checkpoints, derived purely from the trace — the
  trace-based consistency checkers
  (:func:`repro.analysis.consistency.check_c1_from_trace`) and the domino
  analysis (:func:`repro.analysis.domino.histories_from_trace`) read these.

Attach one with ``sim.trace.index`` (lazily created and backfilled) or pass
it up front via ``Simulation(sinks=[TraceIndex(), ...])`` on streaming
configurations where no in-memory event list exists to backfill from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro import tracekinds as T
from repro.sim.trace import TraceEvent, TraceSink, load_jsonl
from repro.types import ProcessId, Seq, TreeId

MsgKey = Tuple[ProcessId, Any]  # (sender pid, send index) — globally unique


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


class TraceIndex(TraceSink):
    """Incrementally-maintained query index over a trace's event stream."""

    is_index = True

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
        clocks may disagree) — then renumbered 0..N-1 so downstream
        consumers see a dense, ordered stream, exactly as if one trace had
        recorded everything.

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
        index = cls()
        index.truncated_lines = truncated
        for new_index, (_, _, _, event) in enumerate(keyed):
            index.emit(
                TraceEvent(
                    index=new_index,
                    time=event.time,
                    kind=event.kind,
                    pid=event.pid,
                    fields=event.fields,
                )
            )
        return index

    def __init__(self) -> None:
        self.events_indexed = 0
        # Tail lines dropped by from_jsonl_files (partial flushes of killed
        # shards); 0 for indexes built from in-memory streams.
        self.truncated_lines = 0
        self._by_kind: Dict[str, List[TraceEvent]] = {}
        self._by_pid: Dict[ProcessId, List[TraceEvent]] = {}
        self._by_pid_kind: Dict[Tuple[ProcessId, str], List[TraceEvent]] = {}
        self._send_by_key: Dict[Any, TraceEvent] = {}
        self._receive_by_key: Dict[Any, TraceEvent] = {}
        self._tree_events: Dict[TreeId, List[TraceEvent]] = {}
        self._proc: Dict[ProcessId, _ProcessState] = {}

    # ------------------------------------------------------------------
    # Sink interface (emit-time maintenance)
    # ------------------------------------------------------------------
    def emit(self, event: TraceEvent) -> None:
        self.events_indexed += 1
        kind = event.kind
        pid = event.pid
        self._by_kind.setdefault(kind, []).append(event)
        if pid is not None:
            self._by_pid.setdefault(pid, []).append(event)
            self._by_pid_kind.setdefault((pid, kind), []).append(event)

        tree = event.fields.get("tree")
        if tree is not None:
            self._tree_events.setdefault(tree, []).append(event)

        if pid is None:
            return
        if kind == T.K_SEND:
            msg_id = event.fields["msg_id"]
            self._send_by_key[_msg_key(msg_id)] = event
            state = self._state(pid)
            state.sends[_send_index(msg_id)] = (event.fields["dst"], True)
        elif kind == T.K_RECEIVE:
            msg_id = event.fields["msg_id"]
            self._receive_by_key[_msg_key(msg_id)] = event
            state = self._state(pid)
            state.receives[(event.fields["src"], _send_index(msg_id))] = True
        elif kind == T.K_UNDO_SEND:
            idx = _send_index(event.fields["msg_id"])
            state = self._state(pid)
            dst, _live = state.sends.get(idx, (event.fields.get("dst"), True))
            state.sends[idx] = (dst, False)
        elif kind == T.K_UNDO_RECEIVE:
            state = self._state(pid)
            key = (event.fields["src"], _send_index(event.fields["msg_id"]))
            state.receives[key] = False
        elif kind == T.K_CHKPT_TENTATIVE:
            state = self._state(pid)
            seq = event.fields["seq"]
            state.pending[seq] = state.manifest(seq)
        elif kind == T.K_CHKPT_COMMIT:
            state = self._state(pid)
            seq = event.fields["seq"]
            # Fall back to a commit-time snapshot for protocols that commit
            # without a traced tentative step.
            view = state.pending.pop(seq, None) or state.manifest(seq)
            state.committed.append(view)
        elif kind == T.K_CHKPT_ABORT:
            self._state(pid).pending.pop(event.fields["seq"], None)

    def _state(self, pid: ProcessId) -> _ProcessState:
        state = self._proc.get(pid)
        if state is None:
            state = self._proc[pid] = _ProcessState()
        return state

    # ------------------------------------------------------------------
    # Event queries
    # ------------------------------------------------------------------
    def by_kind(self, *kinds: str) -> List[TraceEvent]:
        """All records of the given kinds, in trace order — O(matches)."""
        if len(kinds) == 1:
            return list(self._by_kind.get(kinds[0], ()))
        merged: List[TraceEvent] = []
        for kind in kinds:
            merged.extend(self._by_kind.get(kind, ()))
        merged.sort(key=lambda e: e.index)
        return merged

    def count(self, *kinds: str) -> int:
        """Number of records of the given kinds — O(1) per kind."""
        return sum(len(self._by_kind.get(kind, ())) for kind in kinds)

    def for_process(self, pid: ProcessId, *kinds: str) -> List[TraceEvent]:
        """Records of ``pid``, optionally restricted to ``kinds``."""
        if not kinds:
            return list(self._by_pid.get(pid, ()))
        if len(kinds) == 1:
            return list(self._by_pid_kind.get((pid, kinds[0]), ()))
        merged: List[TraceEvent] = []
        for kind in kinds:
            merged.extend(self._by_pid_kind.get((pid, kind), ()))
        merged.sort(key=lambda e: e.index)
        return merged

    def last_of(self, kind: str, pid: Optional[ProcessId] = None) -> Optional[TraceEvent]:
        """Most recent record of ``kind`` (for ``pid`` if given), or None."""
        if pid is not None:
            events = self._by_pid_kind.get((pid, kind), ())
        else:
            events = self._by_kind.get(kind, ())
        return events[-1] if events else None

    def pids(self) -> List[ProcessId]:
        """Every process id that has emitted at least one event."""
        return sorted(self._by_pid)

    def kinds(self) -> List[str]:
        return sorted(self._by_kind)

    # ------------------------------------------------------------------
    # Send/receive matching
    # ------------------------------------------------------------------
    def send_of(self, msg_id: Any) -> Optional[TraceEvent]:
        """The send event of a message — O(1)."""
        return self._send_by_key.get(_msg_key(msg_id))

    def receive_of(self, msg_id: Any) -> Optional[TraceEvent]:
        """The receive event of a message, if delivered and accepted — O(1)."""
        return self._receive_by_key.get(_msg_key(msg_id))

    def send_is_live(self, sender: ProcessId, send_index: Any) -> Optional[bool]:
        """Whether send ``(sender, send_index)`` is live (None if untraced)."""
        state = self._proc.get(sender)
        if state is None:
            return None
        entry = state.sends.get(send_index)
        return None if entry is None else entry[1]

    def live_receives(self, pid: ProcessId) -> List[Tuple[ProcessId, Any]]:
        """``(src, send_index)`` keys of ``pid``'s live (not undone) receives."""
        state = self._proc.get(pid)
        if state is None:
            return []
        return sorted(key for key, live in state.receives.items() if live)

    # ------------------------------------------------------------------
    # Instance trees
    # ------------------------------------------------------------------
    def tree_ids(self) -> List[TreeId]:
        """Every instance tree touched by the trace, in first-seen order."""
        return list(self._tree_events)

    def tree_events(self, tree: TreeId) -> List[TraceEvent]:
        """All events stamped with ``tree``, in trace order."""
        return list(self._tree_events.get(tree, ()))

    # ------------------------------------------------------------------
    # Manifest reconstruction
    # ------------------------------------------------------------------
    def committed_manifests(self, pid: ProcessId) -> List[ManifestView]:
        """Trace-derived manifests of ``pid``'s committed checkpoints.

        The implicit birth checkpoint (seq 1, empty manifests) leads the
        list, mirroring ``CheckpointProcess.committed_history``.
        """
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
