"""Section 6 — resiliency against process failures, as exception handlers.

The paper's six rules resolve the blocking that a fail-stop crash can cause
in either protocol.  Triggers:

* a failure-detector notice about a peer (rules 1, 2, 4, 5, 6) — delivered
  through a :class:`repro.core.events.FailureNotice` event;
* this process restarting after a crash (rule 3) — a
  :class:`repro.core.events.Recover` event, which carries the spooled
  envelopes and spooler-observed decisions so the pure engine never talks to
  a spooler group itself.

Rule summary → implementation:

1. Crashed process does not answer a checkpoint request → the requester
   drops it, propagates ``abort`` to its other true children, processes the
   abort locally, and initiates a global rollback instance.
2. Crashed process does not answer a rollback request → the requester
   excludes it as a child and continues.
3. A restarting process first resolves its uncommitted checkpoint (spooler
   decisions, else a broadcast inquiry; a restarting *initiator* always
   aborts), then initiates a global rollback instance and finally drains its
   spooled normal messages.
4. Checkpoint initiator crashed before deciding → each true child aborts the
   instance "under the control of its true checkpoint children", i.e.
   processes an abort locally and propagates it down.
5. Rollback initiator crashed before ``restart`` → each true child becomes a
   substitute root: it finishes collecting ``roll_complete`` and issues
   ``restart`` to its own subtree.
6. An intermediate parent crashed without forwarding a decision → the
   orphaned child broadcasts a :class:`~repro.core.messages.DecisionInquiry`
   to all operational processes, retrying periodically; the first concrete
   answer is applied as if it came from the parent.  If every process that
   saw the decision is down, the child waits (and keeps retrying).

All handlers are no-ops unless ``config.failure_resilience`` is set, so the
base algorithm can be studied without them.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro import tracekinds as T
from repro.core import effects as FX
from repro.core import events as EV
from repro.core import messages as M
from repro.types import ProcessId, TreeId


class RecoveryMixin:
    """Section 6 exception handlers.  Mixed into ``ProtocolEngine``."""

    # ------------------------------------------------------------------
    # Crash / restart (rule 3)
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """Clean fail-stop: volatile protocol state vanishes.

        Stable storage (``oldchkpt``/``newchkpt``, the persisted commit set)
        and the message logs survive; tree memberships, suspension flags,
        queued output and observed decisions do not.
        """
        self.trees.clear_volatile()
        self.roll_restart_set = set()
        self.chkpt_commit_set = set()
        self.output_queue.clear()
        self.send_suspended = False
        self.comm_suspended = False
        self.decisions_seen = {}
        self._open_inquiries = {}
        self._pending_spool = []

    def on_recover(self, event: EV.Recover) -> None:
        """Rule 3: resolve the uncommitted checkpoint, then roll back."""
        self._recovering = True
        self._spool_decisions = event.spool_decisions
        self.app.restore((self.store.newchkpt or self.store.oldchkpt).state)
        self.chkpt_commit_set = self._load_commit_set()
        self.decisions_seen = self._load_decisions()
        self._collect_spool(event.spooled)

        if not self.store.has_new:
            self._finish_recovery()
            return

        # "If the restarting process was the checkpointing initiator, it
        # always aborts its uncommitted checkpoint" — but only *its own*
        # instances: the checkpoint may be shared with instances rooted
        # elsewhere, and one of those may already have committed (committing
        # the very same checkpoint at every other member).  An own instance
        # cannot have committed — committing is the root's own action.
        own = {t for t in self.chkpt_commit_set if t.initiator == self.node_id}
        for tree_id in sorted(own):
            self._remember_decision(tree_id, "abort")
        others = self.chkpt_commit_set - own
        if not others:
            self._recovery_abort_newchkpt()
            self._finish_recovery()
            return

        decision = self._decision_from_spoolers(others)
        if decision == "commit":
            self.committed_history.append(self.store.commit_through(self.store.newchkpt.seq))
            self._trace(T.K_CHKPT_COMMIT, seq=self.store.oldchkpt.seq, tree=None)
            self.chkpt_commit_set = set()
            self._persist_commit_set()
            self._finish_recovery()
        elif decision == "abort":
            self._recovery_abort_newchkpt()
            self._finish_recovery()
        else:
            # No decision on any live spooler: inquire all other processes
            # and retry until an answer arrives (rule 3 / rule 6 wait).
            self.chkpt_commit_set = set(others)
            self._persist_commit_set()
            for tree_id in sorted(others):
                self._start_decision_inquiry(tree_id, "checkpoint")

    def _recovery_abort_newchkpt(self) -> None:
        doomed = self.store.newchkpt
        if doomed is not None:
            self.store.discard(doomed.seq)
            self._trace(T.K_CHKPT_ABORT, seq=doomed.seq, tree=None)
        self.chkpt_commit_set = set()
        self._persist_commit_set()

    def _finish_recovery(self) -> None:
        """Tail of rule 3: start the mandated global rollback instance, then
        (once communication resumes) consume the spooled messages."""
        self._recovering = False
        self._cancel_all_inquiries()
        self.initiate_rollback()
        # Crash notices broadcast while we were down never reached us: the
        # status monitor's view (assumption c) rides on the Recover event;
        # apply the failure rules for each peer still down — in particular
        # rule 2, so the rollback we just initiated does not wait on a dead
        # process's acknowledgement.
        if self._status_down is not None:
            for pid in self._status_down:
                if pid != self.node_id:
                    self.on_failure_notice(pid)
        if not self.comm_suspended:
            self._drain_pending_spool()
        self._reset_checkpoint_timer()

    def _decision_from_spoolers(self, instances: Iterable[TreeId]) -> Optional[str]:
        """Commit/abort verdict recorded by this process's live spoolers.

        A single ``commit`` for any of ``instances`` (the foreign-rooted
        instances sharing our checkpoint) commits it; an ``abort`` for every
        one of them aborts it; otherwise no verdict (returns ``None`` — also
        when the Recover event carried no decisions: no spooler group, or
        all replicas currently down).
        """
        seen = self._spool_decisions
        if seen is None:
            return None
        verdicts = {tree: kind for kind, tree in seen}
        if any(verdicts.get(t) == "commit" for t in instances):
            return "commit"
        if instances and all(verdicts.get(t) == "abort" for t in instances):
            return "abort"
        return None

    # ------------------------------------------------------------------
    # Spooled normal messages
    # ------------------------------------------------------------------
    def _collect_spool(self, spooled: Optional[Iterable] = None) -> None:
        if spooled is None:
            self._pending_spool = []
            return
        envelopes = list(spooled)
        # Most spooled control traffic is stale (the peers applied their
        # failure handlers for us; decisions were recorded separately via
        # observe_decision) — except roll_reqs: they carry the discard
        # ranges for messages their senders undid while we were down, and
        # without them we would consume stale spooled normal messages.
        # They are replayed *before* the normal messages.
        roll_reqs = [
            e for e in envelopes
            if e.is_control and isinstance(e.body, M.RollReq)
        ]
        normals = [e for e in envelopes if e.is_normal]
        self._pending_spool = roll_reqs + normals

    def _drain_pending_spool(self) -> None:
        pending = getattr(self, "_pending_spool", [])
        self._pending_spool = []
        for envelope in pending:
            self._emit(FX.Redeliver(envelope=envelope))

    # ------------------------------------------------------------------
    # Peer-failure notices (rules 1, 2, 4, 5, 6)
    # ------------------------------------------------------------------
    def on_failure_notice(self, pid: ProcessId) -> None:
        if not self.config.failure_resilience or self.crashed:
            return

        for tree in self.trees.all_chkpt_rounds():
            if tree.closed:
                continue
            if pid in tree.pending_acks or (
                pid in tree.true_children and pid not in tree.ready_children
            ):
                # Rule 1: our (potential) child died before answering.
                tree.drop_child(pid)
                self._abort_instance(tree.tree)
                self._remember_decision(tree.tree, "abort")
                self.initiate_rollback()
            elif tree.parent == pid:
                if tree.tree.initiator == pid and not tree.responded:
                    # Rule 4: the initiator died and we have not voted yet,
                    # so it cannot possibly have decided commit — the
                    # instance is aborted under the children's control.
                    self._remember_decision(tree.tree, "abort")
                    self._abort_instance(tree.tree)
                else:
                    # Rule 6 (also covering a dead initiator after our
                    # vote, when a commit may already exist — possibly only
                    # in the dead initiator's stable storage): find the
                    # decision by inquiry and wait until someone knows.
                    self._start_decision_inquiry(tree.tree, "checkpoint")

        for tree in list(self.trees.roll.values()):
            if tree.closed:
                continue
            # The dead process can be both a pending child and our parent in
            # the same tree (we fanned a request back towards our recruiter),
            # so both rules are checked independently.
            if pid in tree.pending_acks or (
                pid in tree.true_children and pid not in tree.complete_children
            ):
                # Rule 2: exclude the failed roll-child and continue.
                tree.drop_child(pid)
            if tree.parent == pid:
                if tree.tree.initiator == pid:
                    # Rule 5: act as a substitute root for our subtree.
                    tree.substitute = True
                else:
                    # Rule 6 for rollback: hunt for the restart decision.
                    self._start_decision_inquiry(tree.tree, "rollback")
            self._roll_maybe_complete(tree)

    def on_recovery_notice(self, pid: ProcessId) -> None:
        """Peers need no action on recovery: the restarting process drives
        rule 3 itself and its rollback instance will reach us if needed."""

    # ------------------------------------------------------------------
    # Decision inquiry (rules 3 and 6)
    # ------------------------------------------------------------------
    def _start_decision_inquiry(self, tree_id: TreeId, decision_kind: str) -> None:
        if not hasattr(self, "_open_inquiries"):
            self._open_inquiries = {}
        if tree_id in self._open_inquiries:
            return
        self._open_inquiries[tree_id] = decision_kind
        self._broadcast_inquiry(tree_id, decision_kind)

    def _broadcast_inquiry(self, tree_id: TreeId, decision_kind: str) -> None:
        if tree_id not in getattr(self, "_open_inquiries", {}):
            return
        self._emit(
            FX.Broadcast(body=M.DecisionInquiry(tree=tree_id, decision_kind=decision_kind))
        )
        self._set_timer(
            f"inquiry-{tree_id}",
            self.config.inquiry_retry_interval,
            lambda: self._broadcast_inquiry(tree_id, decision_kind),
        )

    def _cancel_inquiry(self, tree_id: TreeId) -> None:
        if hasattr(self, "_open_inquiries"):
            self._open_inquiries.pop(tree_id, None)
        self.cancel_timer(f"inquiry-{tree_id}")

    def _cancel_all_inquiries(self) -> None:
        for tree_id in list(getattr(self, "_open_inquiries", {})):
            self._cancel_inquiry(tree_id)

    def _on_decision_inquiry(self, src: ProcessId, inquiry: M.DecisionInquiry) -> None:
        wanted = {"checkpoint": ("commit", "abort"), "rollback": ("restart",)}
        decision = self.decisions_seen.get(inquiry.tree)
        if decision not in wanted[inquiry.decision_kind]:
            decision = None
        self._send_control(
            src,
            M.DecisionReply(
                tree=inquiry.tree, decision_kind=inquiry.decision_kind, decision=decision
            ),
        )

    def _on_decision_reply(self, src: ProcessId, reply: M.DecisionReply) -> None:
        if reply.decision is None:
            return
        if reply.tree not in getattr(self, "_open_inquiries", {}):
            return
        self._cancel_inquiry(reply.tree)
        self._remember_decision(reply.tree, reply.decision)

        if reply.decision == "commit":
            # As if the parent had relayed it: when the shared checkpoint
            # already committed through another instance, the open rounds of
            # this tree still close and forward the decision (case 1 of b4).
            self._on_commit(src, M.Commit(tree=reply.tree))
            if self._recovering:
                self._finish_recovery()
        elif reply.decision == "abort":
            self._abort_instance(reply.tree)
            if self._recovering and not self.store.has_new:
                self._finish_recovery()
        elif reply.decision == "restart":
            self._on_restart(src, M.Restart(tree=reply.tree))
