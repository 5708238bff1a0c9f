"""Koo-Toueg checkpointing and rollback-recovery [11] (baseline).

Distinguishing features reproduced from the paper's Section 5 summary:

* FIFO channels required (run it on :class:`repro.net.channel.FifoChannel`;
  the E-NONFIFO experiment deliberately runs it on a reordering channel to
  show the assumption is load-bearing);
* minimal participant sets, like Leu-Bhargava — but **no concurrency**:
  a process engaged in one instance rejects requests from any other
  instance, the rejection aborts the whole other instance, and the rejected
  initiator retries after a back-off.  Two instances can keep rejecting
  each other indefinitely — the livelock the Leu-Bhargava paper points out;
* a process may not send normal messages between taking a tentative
  checkpoint and learning the decision.

Implementation: the tree construction, two-phase commit, and rollback
machinery are inherited from the Leu-Bhargava engine (the algorithms share
them); the difference is the single-instance gate in ``_on_chkpt_req`` /
``_on_roll_req`` and the abort-and-retry behaviour on a busy rejection,
which is exactly where the two papers diverge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import tracekinds as T
from repro.baselines.base import BaselineProcess
from repro.core import messages as M
from repro.core.engine import ProtocolEngine
from repro.types import ProcessId, SimTime, TreeId


@dataclass(frozen=True)
class BusyReject:
    """Koo-Toueg rejection: the replier is engaged in another instance."""

    tree: TreeId
    kind = "busy_reject"
    priority = M.ChkptAck.priority


class KooTouegEngine(ProtocolEngine):
    """Single-instance coordinated checkpointing with reject-and-retry."""

    RETRY_DELAY: SimTime = 5.0

    # ------------------------------------------------------------------
    # Engagement gate
    # ------------------------------------------------------------------
    def _engaged_checkpoint(self) -> Optional[TreeId]:
        """The checkpoint instance this process is part of, if any."""
        for tree_id in self.chkpt_commit_set:
            return tree_id
        return None

    def _engaged_rollback(self) -> Optional[TreeId]:
        """The unfinished rollback instance this process is part of, if any."""
        for tree_id, state in self.trees.roll.items():
            if not state.closed:
                return tree_id
        return None

    def _engaged_instance(self) -> Optional[TreeId]:
        """The single instance this process is currently part of, if any."""
        return self._engaged_checkpoint() or self._engaged_rollback()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def initiate_checkpoint(self) -> Optional[TreeId]:
        if self._engaged_instance() is not None:
            return None  # cannot even start while engaged
        return super().initiate_checkpoint()

    def _on_chkpt_req(self, src: ProcessId, req: M.ChkptReq) -> None:
        engaged = self._engaged_instance()
        if engaged is not None and engaged != req.tree:
            # "All other instances will be rejected."
            self._send_control(src, BusyReject(tree=req.tree))
            return
        super()._on_chkpt_req(src, req)

    def _on_busy_reject(self, src: ProcessId, msg: BusyReject) -> None:
        """A member of our instance is engaged elsewhere: abort and retry."""
        tree = self.trees.chkpt.get(msg.tree)
        if tree is not None and not tree.closed:
            self._trace(T.K_INSTANCE_REJECTED, tree=msg.tree)
            if not tree.is_root:
                # Cascade the rejection up so the root learns and retries.
                self._send_control(tree.parent, BusyReject(tree=msg.tree))
            self._abort_instance(msg.tree)
            self._remember_decision(msg.tree, "abort")
            if tree.is_root:
                self._schedule_retry()
            return
        roll = self.trees.roll.get(msg.tree)
        if roll is not None and not roll.closed:
            # A rollback cannot be abandoned; retry the rejected child later.
            self._set_timer(
                f"roll-retry-{msg.tree}-{src}",
                self.RETRY_DELAY,
                lambda: self._retry_roll_child(msg.tree, src),
            )

    def _schedule_retry(self) -> None:
        self._set_timer(
            "kt-retry", self.RETRY_DELAY, self._retry_checkpoint, jitter=("kt-retry", 0.0, 1.0)
        )

    def _retry_checkpoint(self) -> None:
        if self.initiate_checkpoint() is None and not self.crashed:
            self._schedule_retry()

    # ------------------------------------------------------------------
    # Rollback
    # ------------------------------------------------------------------
    def _on_roll_req(self, src: ProcessId, req: M.RollReq) -> None:
        engaged_roll = self._engaged_rollback()
        if engaged_roll is not None and engaged_roll != req.tree:
            # Two rollback instances serialise; the requester retries.
            self._send_control(src, BusyReject(tree=req.tree))
            return
        engaged_ckpt = self._engaged_checkpoint()
        if engaged_ckpt is not None and engaged_ckpt != req.tree:
            state = self.trees.chkpt.get(engaged_ckpt)
            if state is not None and state.responded and not state.closed:
                # Already voted for the checkpoint instance: we are in the
                # 2PC uncertainty window and cannot unilaterally abort.
                # The rollback waits (its requester retries).
                self._send_control(src, BusyReject(tree=req.tree))
                return
            # Not yet voted: a rollback preempts the in-progress checkpoint
            # instance — failures take precedence (the paper's b5/b6
            # priority; Koo-Toueg aborts checkpointing at recovery).
            self._preempt_checkpoint(engaged_ckpt)
        super()._on_roll_req(src, req)

    def _preempt_checkpoint(self, tree_id: TreeId) -> None:
        """Abort our checkpoint instance so a rollback can proceed.

        Non-roots also tell their parent, whose cascade carries the abort to
        the root (which then retries after its back-off).
        """
        state = self.trees.chkpt.get(tree_id)
        if state is not None and not state.closed and not state.is_root:
            self._send_control(state.parent, BusyReject(tree=tree_id))
        self._trace(T.K_INSTANCE_REJECTED, tree=tree_id)
        self._abort_instance(tree_id)
        self._remember_decision(tree_id, "abort")

    def _retry_roll_child(self, tree_id: TreeId, child: ProcessId) -> None:
        state = self.trees.roll.get(tree_id)
        if state is None or state.closed or self.crashed:
            return
        # Re-issue the original request parameters for the rejected child.
        undo_seq = self.ledger.earliest_undone_label_to(child)
        if undo_seq is None:
            state.drop_child(child)
            self._roll_maybe_complete(state)
            return
        state.pending_acks.add(child)
        self._send_control(
            child, M.RollReq(tree=tree_id, undo_seq=undo_seq, undone_upto=self.ledger.n)
        )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch_control(self, src: ProcessId, body) -> None:
        if isinstance(body, BusyReject):
            self._trace(T.K_CTRL_RECEIVE, src=src, msg_type=body.kind, tree=body.tree)
            self._on_busy_reject(src, body)
            return
        super()._dispatch_control(src, body)


class KooTouegProcess(BaselineProcess):
    """Adapter driving :class:`KooTouegEngine`."""

    algorithm_name = "koo-toueg"
    engine_class = KooTouegEngine
