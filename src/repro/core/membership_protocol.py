"""Dynamic-membership handling for the sans-IO engine (join/leave/handoff).

Leu-Bhargava fixes the process set at start; Nakamura et al.
(arXiv:2103.15285) show checkpoint-rollback extends to dynamic systems when
membership changes are explicit protocol events.  This mixin adds that
plane to :class:`repro.core.engine.ProtocolEngine`:

* :class:`repro.core.events.Join` — an existing engine learns a new peer
  exists (the joiner itself receives an ordinary ``Start``).  Joining is
  deliberately cheap: a process with no communication history can never be
  recruited into an open instance (it has sent nothing anyone received), so
  a join mid-instance neither blocks a 2PC round nor changes any tree.
* :class:`repro.core.events.Leave` — a graceful departure.  The departing
  engine resolves its own checkpoint obligations (aborting every *unvoted*
  open round — safe, since the root cannot have decided without its ack —
  while leaving *voted* participations to the root's decision, the 2PC
  blocking rule), unblocks any rollback trees it participates in, and
  hands the rest — commit-set membership, its decision log, dead-letter
  summaries — to a designated successor via a
  :class:`repro.core.effects.Handoff` effect.  Remaining engines drop the
  departed pid from their peer sets and from every open instance round, so
  no round awaits an ack from a process that no longer exists.
* :class:`repro.core.messages.HandoffMsg` — the successor adopts the
  departed pid's decision log so rule-6 :class:`DecisionInquiry` broadcasts
  about its trees keep getting answered after it is gone.

None of this runs on a static-membership execution: no effect, trace or
timer is produced unless a Join or Leave event is actually
delivered, keeping the golden traces bit-identical.
"""

from __future__ import annotations

from typing import Dict

from repro import tracekinds as T
from repro.core import effects as FX
from repro.core import events as EV
from repro.core import messages as M
from repro.types import ProcessId, TreeId


def _tree_order(tree_id: TreeId):
    """Deterministic ordering for TreeId sets (frozen dataclass, no __lt__)."""
    return (tree_id.initiator, tree_id.initiation_seq)


class MembershipMixin:
    """Join/leave/handoff handlers.  Mixed into ``ProtocolEngine``."""

    # ------------------------------------------------------------------
    # Join
    # ------------------------------------------------------------------
    def _ev_join(self, event: EV.Join) -> None:
        if event.pid == self.node_id:
            return  # the joiner's own world view arrives via Start
        if event.peers:
            self.peers = tuple(event.peers)
        elif event.pid not in self.peers:
            self.peers = tuple(sorted(set(self.peers) | {event.pid}))

    # ------------------------------------------------------------------
    # Leave
    # ------------------------------------------------------------------
    def _ev_leave(self, event: EV.Leave) -> None:
        if event.pid == self.node_id:
            self._depart(event)
            return
        self.peers = tuple(p for p in self.peers if p != event.pid)
        # Never recruit the departed pid into future instances: its
        # messages are settled history (obligations went to the successor).
        self.departed_peers.add(event.pid)
        # Drop the departed pid from every open round so no instance blocks
        # awaiting its answer.  Unlike a crash (rule 1) this is graceful:
        # the departing engine resolved its own obligations on the way out
        # (its abort/veto messages are in flight), so a round it was a child
        # of simply continues without it — no abort, no mandated rollback.
        # A round it was the *parent* of is checked first, because the
        # departed pid is usually also one of that round's potential
        # children: dropping it there would complete the round and send
        # ``ready_to_commit`` to a process that no longer exists, with no
        # inquiry armed.
        for state in self.trees.all_chkpt_rounds():
            if state.closed:
                continue
            if state.parent == event.pid:
                if state.responded:
                    # Our parent departed after we voted: the decision will
                    # never be relayed through it, so skip straight to the
                    # rule-6 inquiry instead of waiting out the timeout.
                    self._start_decision_inquiry(state.tree, "checkpoint")
                else:
                    # It departed before we voted, so it cannot have voted
                    # either (it aborted the round on its way out, and that
                    # abort only reaches children whose ack it had seen):
                    # abort is the one decision this instance can have.
                    self._remember_decision(state.tree, "abort")
                    self._abort_instance(state.tree)
            elif event.pid in state.pending_acks or event.pid in state.true_children:
                state.drop_child(event.pid)
                self._chkpt_maybe_respond(state)
        for state in list(self.trees.roll.values()):
            if state.closed:
                continue
            if event.pid in state.pending_acks or event.pid in state.true_children:
                state.drop_child(event.pid)
                self._roll_maybe_complete(state)

    def _depart(self, event: EV.Leave) -> None:
        """The graceful-departure sequence for this engine itself.

        Obligations are snapshotted first (the handoff describes the state
        *before* departure resolution), then every open instance is
        resolved: checkpoint instances abort (the only decision a departing
        member can guarantee), rollback participations complete so their
        trees make progress, and the leftovers travel to the successor.
        """
        commit_set = tuple(sorted(self.chkpt_commit_set, key=_tree_order))
        uncommitted = self.store.newchkpt
        uncommitted_seq = uncommitted.seq if uncommitted is not None else None

        # Resolve checkpoint obligations.  Only *unvoted* open rounds are
        # aborted: the root cannot have decided without our ack, so the
        # veto propagates and the abort is globally consistent
        # (``_abort_instance`` discards the shared checkpoint, vetoes
        # upward and propagates downward, exactly as rule 3 does for a
        # restart).  A participation already *voted* ready is the 2PC
        # blocking case — a ready vote cannot be withdrawn, the root may
        # commit without us — so those trees are left to the root's
        # decision.  The departed checkpoint is simply absent from the
        # recovery line, which is sound because a departed pid's sends are
        # settled history: no restart will ever unsend them.  The tree ids
        # still travel to the successor (``commit_set``) for audit.
        unvoted = {
            s.tree
            for s in self.trees.all_chkpt_rounds()
            if not s.closed and not s.responded
        }
        for tree_id in sorted(unvoted, key=_tree_order):
            self._remember_decision(tree_id, "abort")
            self._abort_instance(tree_id)

        # Unblock rollback trees: a departing participant cannot restore
        # state it is about to discard, but it must not stall the tree.
        for state in list(self.trees.roll.values()):
            if state.closed:
                continue
            if state.is_root:
                self._send_decision(sorted(state.true_children), M.Restart(tree=state.tree))
                self._remember_decision(state.tree, "restart")
            elif not state.responded:
                self._send_control(state.parent, M.RollComplete(tree=state.tree))
                state.responded = True
            state.closed = True

        decisions = tuple(
            (tree, decision)
            for tree, decision in sorted(self.decisions_seen.items(), key=lambda kv: _tree_order(kv[0]))
        )
        if event.successor is not None and event.successor != self.node_id:
            self._emit(
                FX.Handoff(
                    successor=event.successor,
                    source=self.node_id,
                    commit_set=commit_set,
                    decisions=decisions,
                    uncommitted_seq=uncommitted_seq,
                    spooled=tuple(event.spooled),
                )
            )

        self._cancel_all_inquiries()
        self.cancel_timer("ckpt-timer")
        self._timer_actions.clear()
        self.output_queue.clear()
        self.departed = True
        self.crashed = True  # reuse the fail-stop guards: no further actions

    # ------------------------------------------------------------------
    # Handoff adoption (successor side)
    # ------------------------------------------------------------------
    def _on_handoff(self, src: ProcessId, msg: M.HandoffMsg) -> None:
        adopted: Dict[ProcessId, M.HandoffMsg] = self.adopted
        adopted[msg.source] = msg
        # Adopt the departed pid's decision log so rule-6 inquiries about
        # its trees keep finding an answer.  Its commit-set trees (voted
        # but undecided at departure) are deliberately NOT adopted as any
        # decision: the root may yet commit them, and guessing "abort"
        # here could contradict it — they ride along for audit only.
        for tree, decision in msg.decisions:
            if tree not in self.decisions_seen:
                self._remember_decision(tree, decision)
        self._trace(
            T.K_HANDOFF,
            source=msg.source,
            spooled=len(msg.spooled),
            trees=len(msg.commit_set),
        )


__all__ = ["MembershipMixin"]
