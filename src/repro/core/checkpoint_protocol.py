"""The checkpoint half of the algorithm: procedures b1-b4 (paper 3.5.2).

Implemented as a pure mixin over :class:`repro.core.engine.EngineBase`, which
supplies the shared state (``ledger``, ``store``, ``trees``,
``chkpt_commit_set``, suspension flags) and the effect-emitting helpers.  The
mixin never touches a kernel: traces, sends and timers are effects.

The paper's procedures block on ``await (pos_ack|neg_ack)``; in our
event-driven daemon each procedure runs to completion and parks the await in
the tree state (``pending_acks``).  :meth:`_chkpt_maybe_respond` is the
materialisation of condition b3: it fires whenever an ack or a
``ready_to_commit`` arrival might have completed the subtree.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import tracekinds as T
from repro.core import messages as M
from repro.core.trees import ChkptTreeState
from repro.errors import ProtocolError
from repro.priorities import PRIORITY_NORMAL
from repro.types import ProcessId, TreeId


class ChkptProtocolMixin:
    """Procedures b1-b4.  Mixed into ``ProtocolEngine``."""

    # ------------------------------------------------------------------
    # b1 — chkpt_initiation
    # ------------------------------------------------------------------
    def initiate_checkpoint(self) -> Optional[TreeId]:
        """Autonomously start a global checkpointing instance (condition b1).

        Returns the new tree's timestamp, or ``None`` when b1's guard fails
        (a ``newchkpt`` already exists, the process is crashed, or it is
        suspended by a rollback).
        """
        if self.crashed or self.comm_suspended:
            return None
        if self.store.has_new:
            return None  # b1 requires newchkpt(i) = nil

        tree_id = self._new_tree_id()
        self._trace(T.K_INSTANCE_START, tree=tree_id, instance="checkpoint")
        tree = self.trees.open_chkpt(tree_id, parent=None)
        self._make_new_checkpoint(tree_id)
        self._propagate_chkpt_requests(tree)
        self._chkpt_maybe_respond(tree)
        return tree_id

    # ------------------------------------------------------------------
    # b2 — chkpt_request_propagation
    # ------------------------------------------------------------------
    def _on_chkpt_req(self, src: ProcessId, req: M.ChkptReq) -> None:
        """Handle ("chkpt_req", t, max_ij) from potential parent ``src``."""
        if src in self.departed_peers:
            # Sent before ``src`` left, delivered after: it had not voted (it
            # was still recruiting), so it aborted the round on its way out.
            # Joining now would mean voting to a process that no longer exists.
            return
        if self._is_true_chkpt_child(src, req):
            self._send_control(src, M.ChkptAck(tree=req.tree, positive=True))
        else:
            # If the rejection is because we undid the referenced message,
            # the requester's tentative checkpoint is doomed: the rollback
            # notice travels inside the neg_ack so it cannot lose the race.
            notice = self._undone_notice_for(src, req.max_label)
            self._send_control(
                src, M.ChkptAck(tree=req.tree, positive=False, undone_notice=notice)
            )
            return

        # Each recruitment is its own round; an earlier round that is still
        # collecting keeps its obligations through the ``older`` chain.
        tree = self.trees.open_chkpt_round(req.tree, parent=src)
        if not self.store.has_new:
            self._make_new_checkpoint(req.tree)
        else:
            # Reuse the shared uncommitted checkpoint for this new instance.
            self.chkpt_commit_set.add(req.tree)
            self._persist_commit_set()
        self._propagate_chkpt_requests(tree)
        self._chkpt_maybe_respond(tree)

    def _is_true_chkpt_child(self, src: ProcessId, req: M.ChkptReq) -> bool:
        """The three-clause true-child test of Section 3.1.

        P_i is a true chkpt-child of P_j iff (1) seqof(C_i) <= max_ij for its
        last committed checkpoint C_i, (2) it is not already in T(t), and
        (3) it has not undone any outgoing message with label max_ij.

        "Already in T(t)" means *active* membership: ``t`` is still in the
        commit set, i.e. our uncommitted checkpoint is shared with T(t).
        Once that checkpoint commits (possibly through another overlapping
        instance) or aborts, the participation is over, and a later request
        for the same tree referencing a *newer* message must recruit us
        afresh — otherwise the new dependency would be covered by no
        checkpoint and a subsequent rollback could orphan the requester's
        committed state (the neg_ack would silently break C1).
        """
        if req.tree in self.chkpt_commit_set:
            return False
        if self.decisions_seen.get(req.tree) == "abort":
            # The instance is already aborted; an aborted tree never
            # recruits again (a late request is an echo of pre-abort
            # fan-out, and re-joining would let abort storms recruit
            # forever).  A *committed* tree can still re-recruit: the new
            # round covers traffic sent after the committed checkpoint.
            return False
        oldchkpt = self.store.oldchkpt
        if oldchkpt is None or oldchkpt.seq > req.max_label:
            return False
        if self.ledger.has_undone_send_with_label(src, req.max_label):
            return False
        return True

    # ------------------------------------------------------------------
    # Shared helpers for b1/b2
    # ------------------------------------------------------------------
    def _make_new_checkpoint(self, tree_id: TreeId) -> None:
        """Take the uncommitted checkpoint and suspend normal sends.

        Mirrors the common block of b1/b2: snapshot state, advance ``n_i``,
        set ``chkpt_commit_set := {t}``, suspend normal message send.  The
        store keeps a stack for the Section 3.5.3 extension; the base
        algorithm holds at most one uncommitted checkpoint, and this is its
        only take.
        """
        if self.store.has_new:
            raise ProtocolError("newchkpt already exists; commit or discard it first")
        seq = self.ledger.advance()
        self.store.take_new(
            seq, self.app.snapshot(), made_at=self.now, **self._ledger_manifest()
        )
        self.chkpt_commit_set = {tree_id}
        self._persist_commit_set()
        self._suspend_send()
        self._reset_checkpoint_timer()
        self._trace(T.K_CHKPT_TENTATIVE, seq=seq, tree=tree_id)

    def _propagate_chkpt_requests(self, tree: ChkptTreeState, interval: Optional[int] = None) -> None:
        """Send ("chkpt_req", t, max_ki) to every potential chkpt-child P_k.

        The potential children are the senders of live messages received in
        the checkpoint's interval ``[seq - 1, seq]`` (for a reused checkpoint
        this is the *existing* newchkpt's interval — any later traffic is
        blocked by the send suspension on the other side).  ``interval``
        defaults to the current newchkpt's; the Section 3.5.3 extension
        passes the interval of whichever pending checkpoint serves the tree.
        """
        if interval is None:
            newchkpt = self.store.newchkpt
            assert newchkpt is not None
            interval = newchkpt.seq - 1
        # Recruit over every interval back to the last committed checkpoint,
        # not just the newest one.  In failure-free executions the two are
        # identical (older intervals hold no live uncovered receives: commits
        # advance oldchkpt and branch-2 aborts roll the receives away), but a
        # Section 6 failure abort can strand a covered interval, and the next
        # instance must re-cover it or its receives would commit unbacked.
        oldchkpt = self.store.oldchkpt
        first = oldchkpt.seq if oldchkpt is not None else interval
        potentials = self.ledger.senders_in_range(min(first, interval), interval)
        potentials.pop(self.node_id, None)  # self-messages never force a child
        # Gracefully departed senders can never answer a chkpt_req; their
        # obligations travelled to a successor in the handoff, so their
        # messages count as settled history rather than live dependencies.
        for gone in self.departed_peers:
            potentials.pop(gone, None)
        # Union, not assignment: a re-recruited node merges the new round's
        # potential children into its existing collection.
        tree.pending_acks |= set(potentials)
        for child, max_label in sorted(potentials.items()):
            self._send_control(child, M.ChkptReq(tree=tree.tree, max_label=max_label))
        self._schedule_rule1_for_dead(potentials)

    def _schedule_rule1_for_dead(self, potentials: Dict[ProcessId, int]) -> None:
        """Rule 1, applied proactively at fan-out time.

        A potential chkpt-child already known to be down will never answer;
        re-deliver its (past) failure notice so the rule-1 handler aborts
        the instance and initiates the mandated rollback.  Scheduled for
        the same instant (not called inline) so the current procedure
        finishes first — the paper's procedures are exclusive.
        """
        for child in sorted(potentials):
            if self._believed_down(child):
                self._set_timer(
                    f"rule1-P{child}-{self._next_id('rule1')}",
                    0.0,
                    lambda dead=child: self.on_failure_notice(dead),
                    priority=PRIORITY_NORMAL,
                )

    # ------------------------------------------------------------------
    # Ack and response collection (completes b2's await; implements b3)
    # ------------------------------------------------------------------
    def _on_chkpt_ack(self, src: ProcessId, ack: M.ChkptAck) -> None:
        if ack.undone_notice is not None:
            # The rejection came with a rollback notice: our tentative
            # checkpoint consumed a message the sender has undone.  Process
            # the rollback first — it may abort this very instance.
            roll_tree, undo_seq, undone_upto = ack.undone_notice
            self._on_roll_req(
                src, M.RollReq(tree=roll_tree, undo_seq=undo_seq, undone_upto=undone_upto)
            )
        # Credit the oldest round still awaiting an ack from this child
        # (requests and their acks pair up FIFO per child across rounds).
        for state in self.trees.chkpt_rounds(ack.tree):
            if not state.closed and src in state.pending_acks:
                state.record_ack(src, ack.positive)
                self._chkpt_maybe_respond(state)
                return
        if ack.positive:
            # The instance was decided while this positive ack was in
            # flight — e.g. a rollback aborted it mid-recruitment.  The
            # late child holds a tentative checkpoint and awaits a decision
            # that the normal propagation will never deliver: send it now.
            self._answer_late_child(src, ack.tree, self.trees.chkpt.get(ack.tree))

    def _on_ready_to_commit(self, src: ProcessId, msg: M.ReadyToCommit) -> None:
        # Credit the oldest round in which this child is still outstanding.
        rounds = self.trees.chkpt_rounds(msg.tree)
        for state in rounds:
            if state.closed:
                continue
            if src in state.pending_acks or (
                src in state.true_children and src not in state.ready_children
            ):
                state.record_ready(src)
                self._chkpt_maybe_respond(state)
                return
        # No round expected this child: either the instance is already
        # decided (forward the decision) or the ready overtook its own
        # pos_ack on the newest open round (believe the child).
        for state in reversed(rounds):
            if not state.closed:
                state.record_ready(src)
                self._chkpt_maybe_respond(state)
                return
        self._answer_late_child(src, msg.tree, self.trees.chkpt.get(msg.tree))

    def _answer_late_child(
        self, child: ProcessId, tree_id: TreeId, tree: Optional[ChkptTreeState]
    ) -> None:
        """Forward an already-taken decision to a child that joined late."""
        decision = (tree.decision if tree is not None else None) or self.decisions_seen.get(tree_id)
        if decision == "abort":
            self._send_decision((child,), M.Abort(tree=tree_id))
        elif decision == "commit":
            self._send_decision((child,), M.Commit(tree=tree_id))

    def _chkpt_maybe_respond(self, tree: ChkptTreeState) -> None:
        """Condition b3: the subtree of this participation round is ready.

        Non-root round: forward ``ready_to_commit`` to the round's parent
        (once).  Root: decide.  If ``t`` is still in the commit set, commit
        the instance; otherwise the shared checkpoint was already committed
        or aborted through another instance — forward that outcome.
        """
        if tree.closed or tree.responded or not tree.subtree_ready:
            return
        tree.responded = True
        if not tree.is_root:
            self._send_control(tree.parent, M.ReadyToCommit(tree=tree.tree))
            return
        if tree.tree in self.chkpt_commit_set:
            self._commit_checkpoint(tree.tree)
        else:
            # Our shared checkpoint already committed through another
            # overlapping instance, so there is nothing to commit locally —
            # but our children in *this* tree still await a decision, and
            # their checkpoints supported the same (now committed) state.
            # Remembered like any root decision, so a rule-6 inquiry from a
            # child whose parent is gone finds an answer here.
            self._remember_decision(tree.tree, "commit")
            self._forward_decision(tree, "commit")

    def _forward_decision(self, tree: ChkptTreeState, decision: str) -> None:
        """Propagate a decision down tree ``t`` and close our participation.

        Kept separate from the local commit/abort action: a node whose
        checkpoint was already resolved through an overlapping instance must
        still forward the other instance's decision, or its subtree there
        would wait forever (the paper's "simply discarded" applies to the
        local action only).  All of our open rounds for the tree carry the
        same decision, so every round's children are notified.
        """
        message = M.Commit(tree=tree.tree) if decision == "commit" else M.Abort(tree=tree.tree)
        notified: set = set()
        dsts: List[ProcessId] = []  # in send order, round by round
        for state in tree.chain():
            if state.closed:
                continue
            fresh = sorted(state.true_children - notified)
            notified.update(fresh)
            dsts += fresh
            if (
                decision == "abort"
                and state.parent is not None
                and not state.responded
            ):
                # We are aborting before having voted: veto the instance
                # upward as well, or ancestors would await our ready_to_commit
                # forever.  (After a vote the decision is the root's alone.)
                dsts.append(state.parent)
            state.decision = decision
            state.closed = True
        self._send_decision(dsts, message)

    # ------------------------------------------------------------------
    # b4 — chkpt_commit/abort
    # ------------------------------------------------------------------
    def _on_commit(self, src: ProcessId, msg: M.Commit) -> None:
        """Case 1 of b4: commit if ``t`` is in the commit set.

        Even when the local checkpoint was already resolved elsewhere, the
        decision must continue down this tree (see ``_forward_decision``).
        """
        self._remember_decision(msg.tree, "commit")
        if msg.tree in self.chkpt_commit_set:
            self._commit_checkpoint(msg.tree)
            return
        tree = self.trees.chkpt.get(msg.tree)
        if tree is not None:
            self._forward_decision(tree, "commit")

    def _commit_checkpoint(self, tree_id: TreeId) -> None:
        """Make the uncommitted checkpoint committed and resume sends.

        ``oldchkpt := newchkpt; newchkpt := nil; chkpt_commit_set := {}``.
        The decision is propagated down tree ``t``; instances sharing the
        checkpoint are now satisfied (their later decisions are discarded
        because the commit set is empty).
        """
        tree = self.trees.chkpt.get(tree_id)
        if tree is not None:
            self._forward_decision(tree, "commit")
        committed = self.store.commit_through(self.store.newchkpt.seq)
        self.committed_history.append(committed)
        shared = self.chkpt_commit_set
        self.chkpt_commit_set = set()
        self._persist_commit_set()
        self._trace(T.K_CHKPT_COMMIT, seq=committed.seq, tree=tree_id)
        for other in shared:
            state = self.trees.chkpt.get(other)
            if state is not None and state.is_root:
                self._trace(T.K_INSTANCE_COMMIT, tree=other)
        self._resume_send()
        self._remember_decision(tree_id, "commit")

    def _on_abort(self, src: ProcessId, msg: M.Abort) -> None:
        """Case 2 of b4: drop ``t`` from the commit set; discard the shared
        checkpoint only when no other instance still references it."""
        self._remember_decision(msg.tree, "abort")
        self._abort_instance(msg.tree)

    def _abort_instance(self, tree_id: TreeId) -> None:
        tree = self.trees.chkpt.get(tree_id)
        was_member = tree_id in self.chkpt_commit_set
        if was_member:
            self.chkpt_commit_set.discard(tree_id)
            self._persist_commit_set()
            if not self.chkpt_commit_set and self.store.has_new:
                discarded = self.store.newchkpt
                self.store.discard(discarded.seq)
                self._trace(T.K_CHKPT_ABORT, seq=discarded.seq, tree=tree_id)
                self._resume_send()
        if tree is not None:
            was_open_root = tree.is_root and not tree.closed
            self._forward_decision(tree, "abort")
            if was_open_root:
                self._trace(T.K_INSTANCE_ABORT, tree=tree_id)
