"""Tamir-Séquin global checkpointing [20] (baseline).

Distinguishing features reproduced from the paper's Section 5 summary:

* **all** processes in the system take checkpoints (or roll back) together,
  regardless of who communicated with whom — maximally simple, maximally
  disruptive (the "forced processes" metric equals n-1 on every instance);
* a process may not resume normal operation between taking its tentative
  checkpoint and the coordinator's commit.

Architecture, matching the original system: a *single static coordinator*
(the lowest process id) serialises every global operation.  A process that
wants to checkpoint or roll back sends a request to the coordinator, which
runs one flat two-phase operation at a time over the whole process set —
checkpoint (freeze -> acks -> commit) or rollback (restore -> acks).  The
FIFO channels from the coordinator guarantee every process observes the
decisions and restores in the same global order, which is what makes
"everyone restores the last committed checkpoint" a consistent line.

In-transit application messages that straddle a global restore are dropped
via an incarnation stamp, modelling the original system's channel flush.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro import tracekinds as T
from repro.baselines.base import BaselineProcess
from repro.core import messages as M
from repro.core.engine import ProtocolEngine
from repro.net.message import Envelope
from repro.types import ProcessId, TreeId


@dataclass(frozen=True)
class CoordRequest:
    """Ask the static coordinator to run a global operation."""

    op: str  # "checkpoint" | "rollback"
    kind = "coord_request"
    priority = M.ChkptReq.priority


@dataclass(frozen=True)
class GlobalFreeze:
    """Coordinator asks everyone to take a tentative checkpoint."""

    tree: TreeId
    kind = "global_freeze"
    priority = M.ChkptReq.priority


@dataclass(frozen=True)
class GlobalRollback:
    """Coordinator asks everyone to restore the last committed checkpoint."""

    tree: TreeId
    kind = "global_rollback"
    priority = M.RollReq.priority


class TamirSequinEngine(ProtocolEngine):
    """System-wide coordinated checkpointing under a static coordinator."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Participant state.
        self._current: Optional[TreeId] = None  # pending tentative's instance
        self.incarnation = 0  # counts global restores; stamps normal sends
        # Coordinator state (used only on the lowest-id process).
        self._op_queue: List[Tuple[str, TreeId]] = []
        self._busy: Optional[TreeId] = None
        self._op_kind: Optional[str] = None
        self._acks: Set[ProcessId] = set()

    # ------------------------------------------------------------------
    # Incarnation-stamped normal plane
    # ------------------------------------------------------------------
    def _current_incarnation(self) -> int:
        return self.incarnation

    def _on_normal(self, envelope: Envelope) -> None:
        if envelope.body.incarnation < self.incarnation:
            # The message straddles a global restore: channel-flush drop.
            self._trace(
                T.K_DISCARD, msg_id=envelope.msg_id, src=envelope.src, label=envelope.label,
                reason="stale_incarnation",
            )
            return
        super()._on_normal(envelope)

    # ------------------------------------------------------------------
    # Driver API: route everything through the coordinator
    # ------------------------------------------------------------------
    @property
    def _coordinator(self) -> ProcessId:
        return min(self.peers)

    def initiate_checkpoint(self) -> Optional[TreeId]:
        if self.crashed:
            return None
        if self.node_id == self._coordinator:
            return self._enqueue_op("checkpoint")
        self._send_control(self._coordinator, CoordRequest(op="checkpoint"))
        return None

    def initiate_rollback(self) -> Optional[TreeId]:
        if self.crashed:
            return None
        if self.node_id == self._coordinator:
            return self._enqueue_op("rollback")
        self._send_control(self._coordinator, CoordRequest(op="rollback"))
        return None

    # ------------------------------------------------------------------
    # Coordinator: one global operation at a time
    # ------------------------------------------------------------------
    def _enqueue_op(self, op: str) -> TreeId:
        tree_id = self._new_tree_id()
        self._op_queue.append((op, tree_id))
        self._trace(T.K_INSTANCE_START, tree=tree_id, instance=op)
        self._maybe_start_op()
        return tree_id

    def _maybe_start_op(self) -> None:
        if self._busy is not None or not self._op_queue:
            return
        op, tree_id = self._op_queue.pop(0)
        self._busy, self._op_kind, self._acks = tree_id, op, set()
        others = [p for p in self.peers if p != self.node_id]
        if op == "checkpoint":
            self._take_tentative(tree_id)
            for pid in others:
                self._send_control(pid, GlobalFreeze(tree=tree_id))
            if not others:
                self._finish_checkpoint_op()
        else:
            self._global_restore(tree_id)
            for pid in others:
                self._send_control(pid, GlobalRollback(tree=tree_id))
            if not others:
                self._finish_rollback_op()

    def _on_coord_request(self, src: ProcessId, req: CoordRequest) -> None:
        self._enqueue_op(req.op)

    def _on_chkpt_ack(self, src: ProcessId, ack: M.ChkptAck) -> None:
        if self._busy != ack.tree or self._op_kind != "checkpoint":
            return
        self._acks.add(src)
        if self._acks >= set(self.peers) - {self.node_id}:
            self._finish_checkpoint_op()

    def _on_roll_ack(self, src: ProcessId, ack: M.RollAck) -> None:
        if self._busy != ack.tree or self._op_kind != "rollback":
            return
        self._acks.add(src)
        if self._acks >= set(self.peers) - {self.node_id}:
            self._finish_rollback_op()

    def _finish_checkpoint_op(self) -> None:
        tree_id = self._busy
        self._send_decision(
            [pid for pid in self.peers if pid != self.node_id], M.Commit(tree=tree_id)
        )
        self._local_commit(tree_id)
        self._trace(T.K_INSTANCE_COMMIT, tree=tree_id)
        self._busy = self._op_kind = None
        self._maybe_start_op()

    def _finish_rollback_op(self) -> None:
        tree_id = self._busy
        self._trace(T.K_INSTANCE_COMMIT, tree=tree_id)
        self._busy = self._op_kind = None
        self._maybe_start_op()

    # ------------------------------------------------------------------
    # Participant actions
    # ------------------------------------------------------------------
    def _take_tentative(self, tree_id: TreeId) -> None:
        seq = self.ledger.advance()
        self.store.take_new(seq, self.app.snapshot(), made_at=self.now, **self._ledger_manifest())
        self._current = tree_id
        self.chkpt_commit_set = {tree_id}
        self._persist_commit_set()
        self._suspend_send()
        self._trace(T.K_CHKPT_TENTATIVE, seq=seq, tree=tree_id)

    def _on_global_freeze(self, src: ProcessId, msg: GlobalFreeze) -> None:
        if self._current != msg.tree:
            self._take_tentative(msg.tree)
        self._send_control(src, M.ChkptAck(tree=msg.tree, positive=True))

    def _local_commit(self, tree_id: TreeId) -> None:
        if self.store.newchkpt is not None and tree_id in self.chkpt_commit_set:
            committed = self.store.commit_through(self.store.newchkpt.seq)
            self.committed_history.append(committed)
            self._trace(T.K_CHKPT_COMMIT, seq=committed.seq, tree=tree_id)
        self.chkpt_commit_set = set()
        self._persist_commit_set()
        self._current = None
        self._resume_send()
        self._remember_decision(tree_id, "commit")

    def _on_commit(self, src: ProcessId, msg: M.Commit) -> None:
        if msg.tree == self._current:
            self._local_commit(msg.tree)

    def _on_global_rollback(self, src: ProcessId, msg: GlobalRollback) -> None:
        self._global_restore(msg.tree)
        self._send_control(src, M.RollAck(tree=msg.tree, positive=True))

    def _global_restore(self, tree_id: TreeId) -> None:
        """Restore the last committed checkpoint and renumber the interval.

        The coordinator's FIFO channel ordering guarantees every process
        received the decisions of all earlier instances before this
        restore, so "last committed" is the same global generation
        everywhere (no tentative can be pending here).
        """
        self.incarnation += 1
        self.output_queue.clear()
        target = self.store.oldchkpt
        self.app.restore(target.state)
        undone_sends, undone_receives = self.ledger.undo_for_rollback(target.seq)
        self._trace(
            T.K_ROLLBACK, to_seq=target.seq, tree=tree_id, target="oldchkpt",
            undone_sends=len(undone_sends), undone_receives=len(undone_receives),
        )
        for record in undone_sends:
            self._trace(
                T.K_UNDO_SEND, msg_id=record.msg_id, dst=record.dst, label=record.label
            )
        for record in undone_receives:
            self._trace(
                T.K_UNDO_RECEIVE, msg_id=record.msg_id, src=record.src, label=record.label
            )
        new_interval = self.ledger.advance()
        self._trace(T.K_RESTART, new_interval=new_interval)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch_control(self, src: ProcessId, body) -> None:
        if isinstance(body, (CoordRequest, GlobalFreeze, GlobalRollback)):
            self._trace(
                T.K_CTRL_RECEIVE, src=src, msg_type=body.kind, tree=getattr(body, "tree", None)
            )
            if isinstance(body, CoordRequest):
                self._on_coord_request(src, body)
            elif isinstance(body, GlobalFreeze):
                self._on_global_freeze(src, body)
            else:
                self._on_global_rollback(src, body)
            return
        super()._dispatch_control(src, body)


class TamirSequinProcess(BaselineProcess):
    """Adapter driving :class:`TamirSequinEngine`."""

    algorithm_name = "tamir-sequin"
    engine_class = TamirSequinEngine
