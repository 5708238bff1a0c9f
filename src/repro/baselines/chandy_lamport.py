"""Chandy-Lamport distributed snapshots [4] (baseline / reference point).

The Leu-Bhargava extension borrows its marker idea from this classic
algorithm, and the Section 5 discussion contrasts both coordinated
checkpointing schemes against it, so we include a faithful implementation:

* the initiator records its state and sends a *marker* on every outgoing
  channel;
* on the first marker for a snapshot, a process records its state, starts
  recording every incoming channel, and sends markers on all its channels;
* per channel, recording stops when that channel's marker arrives; the
  messages recorded in between are the channel state;
* the snapshot is complete at a process once markers arrived on all
  incoming channels.

Assumes FIFO channels (markers separate pre- and post-snapshot messages on
a channel; on a reordering channel the recorded "channel state" is wrong —
exactly what the E-NONFIFO experiment demonstrates).  There is no commit
phase and no rollback protocol: Chandy-Lamport detects global states, it
does not manage recovery — the comparison metrics of interest are scope
(every process participates) and message cost (one marker per channel,
n*(n-1) total).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set

from repro import tracekinds as T
from repro.baselines.base import BaselineProcess
from repro.core.engine import ProtocolEngine
from repro.net.message import Envelope
from repro.priorities import PRIORITY_CHECKPOINT
from repro.types import ProcessId, TreeId


@dataclass(frozen=True)
class Marker:
    """The snapshot marker, sent once per (snapshot, channel)."""

    tree: TreeId
    kind = "marker"
    priority = PRIORITY_CHECKPOINT


@dataclass
class SnapshotState:
    """Per-snapshot bookkeeping at one process."""

    tree: TreeId
    state: Any = None
    recorded_at_seq: int = 0
    # channel (src) -> recorded in-transit messages; channel removed from
    # `recording` once its marker arrives.
    channel_state: Dict[ProcessId, List[Any]] = None
    recording: Set[ProcessId] = None
    complete: bool = False

    def __post_init__(self) -> None:
        if self.channel_state is None:
            self.channel_state = {}
        if self.recording is None:
            self.recording = set()


class ChandyLamportEngine(ProtocolEngine):
    """Marker-based global snapshots on a complete FIFO topology."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.snapshots: Dict[TreeId, SnapshotState] = {}

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def initiate_checkpoint(self) -> Optional[TreeId]:
        if self.crashed:
            return None
        tree_id = self._new_tree_id()
        self._trace(T.K_INSTANCE_START, tree=tree_id, instance="checkpoint")
        self._record_local(tree_id)
        return tree_id

    def _record_local(self, tree_id: TreeId) -> None:
        """Record own state and emit markers on every outgoing channel."""
        snapshot = SnapshotState(tree=tree_id)
        snapshot.state = self.app.snapshot()
        seq = self.ledger.advance()
        snapshot.recorded_at_seq = seq
        others = [p for p in self.peers if p != self.node_id]
        snapshot.recording = set(others)
        self.snapshots[tree_id] = snapshot
        # The snapshot is also this process's checkpoint: committed
        # immediately (Chandy-Lamport has no decision phase).
        self.store.take_new(seq, snapshot.state, made_at=self.now, **self._ledger_manifest())
        self.committed_history.append(self.store.commit_through(seq))
        self._trace(T.K_CHKPT_TENTATIVE, seq=seq, tree=tree_id)
        self._trace(T.K_CHKPT_COMMIT, seq=seq, tree=tree_id)
        for pid in others:
            self._send_control(pid, Marker(tree=tree_id))
        if not others:
            self._finish_snapshot(snapshot)

    def _on_marker(self, src: ProcessId, marker: Marker) -> None:
        snapshot = self.snapshots.get(marker.tree)
        if snapshot is None:
            # First marker: record state, start recording other channels.
            self._record_local(marker.tree)
            snapshot = self.snapshots[marker.tree]
        # The channel the marker arrived on stops recording; its state is
        # whatever arrived between our recording point and this marker.
        snapshot.recording.discard(src)
        if not snapshot.recording:
            self._finish_snapshot(snapshot)

    def _finish_snapshot(self, snapshot: SnapshotState) -> None:
        if snapshot.complete:
            return
        snapshot.complete = True
        if snapshot.tree.initiator == self.node_id:
            self._trace(T.K_INSTANCE_COMMIT, tree=snapshot.tree)

    # ------------------------------------------------------------------
    # Channel recording piggybacks on normal delivery
    # ------------------------------------------------------------------
    def _on_normal(self, envelope: Envelope) -> None:
        for snapshot in self.snapshots.values():
            if not snapshot.complete and envelope.src in snapshot.recording:
                snapshot.channel_state.setdefault(envelope.src, []).append(
                    envelope.body.payload
                )
        super()._on_normal(envelope)

    # ------------------------------------------------------------------
    # No rollback protocol
    # ------------------------------------------------------------------
    def initiate_rollback(self) -> Optional[TreeId]:
        """Chandy-Lamport detects states; it has no recovery protocol."""
        return None

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch_control(self, src: ProcessId, body) -> None:
        if isinstance(body, Marker):
            self._trace(T.K_CTRL_RECEIVE, src=src, msg_type=body.kind, tree=body.tree)
            self._on_marker(src, body)
            return
        super()._dispatch_control(src, body)


class ChandyLamportProcess(BaselineProcess):
    """Adapter driving :class:`ChandyLamportEngine`."""

    algorithm_name = "chandy-lamport"
    engine_class = ChandyLamportEngine
