"""The rollback half of the algorithm: procedures b5-b8 (paper 3.5.2).

Pure mixin over :class:`repro.core.engine.EngineBase`.  The paper gives
these procedures the highest priority; the control messages involved carry
``PRIORITY_ROLLBACK`` so the kernel processes them before same-instant
checkpoint traffic.

Faithfulness deviations (argued in DESIGN.md §5):

* after a ``neg_ack`` in b6 the procedure returns (the paper's pseudocode
  omits the ``return`` that its b2 twin has);
* ``bad_seq`` is computed as the *minimum label among the sends actually
  undone* — exactly what the paper's own comment defines ("the minimum label
  of the messages that have just been undone by the sender") — rather than
  the per-branch closed forms, which miss survivors of aborted-checkpoint
  intervals;
* every ``roll_req`` carries ``undone_upto`` so receivers can install an
  exact discard filter for in-transit undone messages (the paper requires
  the sender to "inform P_j to discard" them but leaves the mechanism open).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro import tracekinds as T
from repro.core import messages as M
from repro.core.trees import RollTreeState
from repro.types import CheckpointRecord, ProcessId, Seq, TreeId


class RollProtocolMixin:
    """Procedures b5-b8.  Mixed into ``ProtocolEngine``."""

    # ------------------------------------------------------------------
    # b5 — roll_initiation
    # ------------------------------------------------------------------
    def initiate_rollback(self) -> Optional[TreeId]:
        """A transient error was detected (condition b5): roll back.

        Rolls back to ``newchkpt`` if one exists, else to ``oldchkpt``, and
        starts a global rollback instance.  Returns the tree timestamp, or
        ``None`` if the process is crashed.
        """
        if self.crashed:
            return None
        tree_id = self._new_tree_id()
        self._trace(T.K_INSTANCE_START, tree=tree_id, instance="rollback")
        tree = self.trees.open_roll(tree_id, parent=None)

        target = self.store.newchkpt or self.store.oldchkpt
        self._perform_rollback(tree, target)
        self._roll_maybe_complete(tree)
        return tree_id

    # ------------------------------------------------------------------
    # b6 — roll_request_propagation
    # ------------------------------------------------------------------
    def _on_roll_req(self, src: ProcessId, req: M.RollReq) -> None:
        """Handle ("roll_req", t, undo_seq) from potential parent ``src``.

        Three cases, following the paper's membership rule:

        * not a member and a doomed receive exists — become ``src``'s true
          roll-child in T(t) and roll back (the normal b6 path);
        * already a member and a doomed receive exists — answer ``neg_ack``
          (membership is unique) but *still roll back*: several instance
          members may each have undone messages we consumed, and only the
          first one recruits us.  This is why the paper's b6, unlike b2,
          does not return after the negative acknowledgement.  If our
          membership already ended (restart processed — possible only
          through non-FIFO delay of the roll_req), the undo happens under a
          fresh instance rooted here, since T(t)'s two-phase commit can no
          longer synchronise it;
        * no doomed receive — ``neg_ack``, nothing to undo (any still
          in-transit undone message is caught by the discard filter).
        """
        # The requester's undone messages may still be in transit; discard
        # them on arrival whether or not we are a true child.
        self.ledger.install_discard_filter(src, req.undo_seq, req.undone_upto)

        member = self.trees.roll_member(req.tree)
        earliest = self.ledger.earliest_doomed_interval(src, req.undo_seq)
        doomed = earliest is not None
        is_child = doomed and not member
        self._send_control(src, M.RollAck(tree=req.tree, positive=is_child))
        if not doomed:
            return

        if is_child:
            tree = self.trees.open_roll(req.tree, parent=src)
        else:
            tree = self.trees.roll[req.tree]
            if tree.closed:
                tree = self.trees.open_roll(self._new_tree_id(), parent=None)
                self._trace(T.K_INSTANCE_START, tree=tree.tree, instance="rollback")

        self._rollback_for_request(tree, earliest)
        self._roll_maybe_complete(tree)

    def _undone_notice_for(
        self, requester: ProcessId, label: int
    ) -> Optional[Tuple[TreeId, int, int]]:
        """Close the neg_ack/roll_req race on non-FIFO channels.

        A checkpoint request referencing a message we have already undone is
        rejected, but the requester's tentative checkpoint has consumed that
        doomed message and must be torn down.  The original ``roll_req`` is
        (or was) in flight; on a non-FIFO channel our rejection may overtake
        it and the requester could commit first.  The paper prevents this
        with its control-message atomicity assumption; we achieve the same
        guarantee by piggybacking the rollback notice on the rejection
        itself (idempotent at the receiver).

        Returns the ``(roll tree, undo_seq, undone_upto)`` notice or ``None``
        when the rejection was for another reason.
        """
        notice = self.ledger.undone_send_info(requester, label)
        if notice is None:
            return None
        roll_tree_id, _undo_seq, _undone_upto = notice
        state = self.trees.roll.get(roll_tree_id)
        if state is not None and not state.closed:
            # The requester may join as our true child; gate completion on it.
            state.pending_acks.add(requester)
        return notice

    def _rollback_for_request(self, tree: RollTreeState, earliest: Seq) -> None:
        """b6's branch analysis: pick the restoration target and roll back.

        The paper's test — ``undo_seq > max_ji`` over newchkpt's own interval
        — is equivalent to asking whether *every* doomed receive happened
        after newchkpt was made, under the invariant that older intervals
        are covered by committed checkpoints.  Failure-rule aborts can break
        that invariant, so we evaluate the question directly: ``earliest``
        is the earliest interval holding a live doomed receive, and newchkpt
        is kept only if it predates all of them.
        """
        newchkpt = self.store.newchkpt
        if newchkpt is not None and earliest >= newchkpt.seq:
            # All undone receives happened after newchkpt was made: rolling
            # back to newchkpt suffices and the uncommitted checkpoint (and
            # its instances) survives.
            self._perform_rollback(tree, newchkpt)
        elif newchkpt is not None:
            # Some undone receive predates newchkpt: the tentative
            # checkpoint captured a doomed state.  Abort every instance
            # sharing it and fall back to oldchkpt.  Queued sends belong
            # to the doomed computation: drop them before the abort's
            # send-resume could flush them into the network.
            self.output_queue.clear()
            self._abort_shared_checkpoint_instances()
            self._perform_rollback(tree, self.store.oldchkpt)
        else:
            self._perform_rollback(tree, self.store.oldchkpt)

    def _abort_shared_checkpoint_instances(self) -> None:
        """b6's middle branch: abort every instance sharing ``newchkpt``.

        "send ('abort', t') to all its true chkpt-children with respect to
        the chkpt-tree T(t') for all t' in chkpt_commit_set(i)".
        """
        doomed = self.store.newchkpt
        for other in sorted(self.chkpt_commit_set):
            state = self.trees.chkpt.get(other)
            if state is not None:
                was_open_root = state.is_root and not state.closed
                self._forward_decision(state, "abort")
                if was_open_root:
                    self._trace(T.K_INSTANCE_ABORT, tree=other)
            self._remember_decision(other, "abort")
        self.chkpt_commit_set = set()
        self._persist_commit_set()
        if doomed is not None:
            self.store.discard(doomed.seq)
            self._trace(T.K_CHKPT_ABORT, seq=doomed.seq, tree=None)
        self._resume_send()  # the checkpoint suspension lapses with newchkpt

    # ------------------------------------------------------------------
    # The rollback action shared by b5/b6
    # ------------------------------------------------------------------
    def _perform_rollback(self, tree: RollTreeState, target: Optional[CheckpointRecord]) -> None:
        """Restore ``target``, undo the ledger, and propagate roll_reqs.

        A doomed ``newchkpt`` is discarded by the caller before this runs.
        """
        assert target is not None, "a process always has a committed checkpoint"
        self.app.restore(target.state)
        undone_sends, undone_receives = self.ledger.undo_for_rollback(target.seq)
        self._trace(
            T.K_ROLLBACK,
            to_seq=target.seq,
            tree=tree.tree,
            target="newchkpt" if not target.committed else "oldchkpt",
            undone_sends=len(undone_sends),
            undone_receives=len(undone_receives),
        )
        for record in undone_sends:
            self._trace(
                T.K_UNDO_SEND, msg_id=record.msg_id, dst=record.dst, label=record.label
            )
        for record in undone_receives:
            self._trace(
                T.K_UNDO_RECEIVE, msg_id=record.msg_id, src=record.src, label=record.label
            )
        # Output-queue entries were generated after the restored state; they
        # are part of the undone computation and must never be transmitted.
        self.output_queue.clear()

        bad_seq, potential = self.ledger.undo_summary(undone_sends, fallback=self.ledger.n)
        potential.discard(self.node_id)
        # Gracefully departed receivers cannot roll back; the messages they
        # received from us are settled history (see the membership plane).
        potential -= self.departed_peers
        undone_upto = self.ledger.n
        for record in undone_sends:
            record.undone_by = (tree.tree, bad_seq, undone_upto)
        # Union, not assignment: a member rolling back a second time for the
        # same tree gains additional potential children.
        tree.pending_acks |= potential
        for child in sorted(potential):
            self._send_control(
                child, M.RollReq(tree=tree.tree, undo_seq=bad_seq, undone_upto=undone_upto)
            )

        # Rule 2, applied proactively: a potential roll-child already known
        # to be down will never acknowledge — exclude it and continue (its
        # own rule-3 recovery rollback undoes the same messages).
        for child in sorted(potential):
            if self._believed_down(child):
                tree.drop_child(child)

        # b6 suspends unconditionally; b5 only when a roll-child exists.  We
        # register the instance now and let _roll_maybe_complete resolve the
        # childless-root case immediately (removing it and advancing n_i).
        if not tree.is_root or tree.pending_acks:
            self.roll_restart_set.add(tree.tree)
            self._suspend_comm()

    # ------------------------------------------------------------------
    # Ack and completion collection (b6's await; b7)
    # ------------------------------------------------------------------
    def _on_roll_ack(self, src: ProcessId, ack: M.RollAck) -> None:
        tree = self.trees.roll.get(ack.tree)
        if tree is None or tree.closed:
            return
        tree.record_ack(src, ack.positive)
        self._roll_maybe_complete(tree)

    def _on_roll_complete(self, src: ProcessId, msg: M.RollComplete) -> None:
        tree = self.trees.roll.get(msg.tree)
        if tree is None or tree.closed:
            # A child recruited after our instance already restarted (via a
            # re-issued rollback notice) completes late; release it directly
            # with the decision we already know.
            if self.decisions_seen.get(msg.tree) == "restart":
                self._send_decision((src,), M.Restart(tree=msg.tree))
            return
        tree.record_complete(src)
        self._roll_maybe_complete(tree)

    def _roll_maybe_complete(self, tree: RollTreeState) -> None:
        """Condition b7 for this node's subtree.

        Non-root: send ``roll_complete`` to the parent and keep waiting for
        ``restart``.  Root (or rule-5 substitute): issue ``restart`` to the
        true children and release this instance locally.
        """
        if tree.closed or not tree.subtree_complete:
            return
        if not (tree.is_root or tree.substitute):
            if tree.responded:
                return
            tree.responded = True
            self._send_control(tree.parent, M.RollComplete(tree=tree.tree))
            return
        # Root — or a rule-5 substitute, which may have already responded to
        # the (now dead) initiator before taking over; it must still issue
        # the restart for its subtree.
        tree.responded = True
        self._send_decision(sorted(tree.true_children), M.Restart(tree=tree.tree))
        self._remember_decision(tree.tree, "restart")
        if tree.is_root:
            self._trace(T.K_INSTANCE_COMMIT, tree=tree.tree)
        tree.closed = True
        self._release_roll_instance(tree.tree)

    # ------------------------------------------------------------------
    # b8 — roll_restart
    # ------------------------------------------------------------------
    def _on_restart(self, src: ProcessId, msg: M.Restart) -> None:
        self._remember_decision(msg.tree, "restart")
        tree = self.trees.roll.get(msg.tree)
        if tree is None or tree.closed:
            return
        self._send_decision(sorted(tree.true_children), M.Restart(tree=msg.tree))
        tree.closed = True
        self._release_roll_instance(msg.tree)

    def _release_roll_instance(self, tree_id: TreeId) -> None:
        """Remove ``t`` from roll_restart_set; on empty, advance ``n_i`` and
        resume sending and receiving normal messages (b7/b8 tail)."""
        self.roll_restart_set.discard(tree_id)
        if not self.roll_restart_set:
            new_interval = self.ledger.advance()
            self._trace(T.K_RESTART, new_interval=new_interval)
            self._resume_comm()
