"""Section 3.5.3 — sending while a checkpoint is uncommitted.

The base algorithm suspends normal sends from the moment ``newchkpt`` is
taken until it commits or aborts.  The extension removes that blocking:

* a process keeps a *stack* of uncommitted checkpoints
  (``newchkpt_a .. newchkpt_l``), each shared by one or more instances;
* outgoing normal messages sent while checkpoints are pending carry
  Chandy-Lamport-style **markers** — the timestamps of the instances that
  made the newest pending checkpoint;
* a receiver seeing an unseen marker ``t'`` runs ``chkpt_initiation()``
  *before consuming the message*, so the post-checkpoint message lands after
  the receiver's own new checkpoint (preserving C1); repeated markers with
  the same ``t'`` are ignored;
* a checkpoint request is served by whichever pending checkpoint covers the
  referenced message (cases 1-3 of the paper), creating a new one only when
  the message was sent in the current interval;
* a rollback request rolls back to the latest checkpoint predating the
  earliest doomed receive and discards every pending checkpoint taken after
  it (cases 1-3 for rollback).

The paper's case analysis assumes the referenced label sits exactly at a
pending checkpoint's boundary; we implement the general covering rule (the
earliest pending checkpoint with ``seq > label`` serves the request) of
which the paper's cases are instances — see DESIGN.md §5.

Split like the base algorithm: :class:`ExtendedProtocolEngine` is the
sans-IO variant (safe to import from :mod:`repro.core.engine` consumers) and
keeps the pending stack in the engine's one
:class:`~repro.stable.checkpoint.CheckpointStore`, of which the base
algorithm uses depth one; :class:`ExtendedCheckpointProcess` is the kernel
adapter that drives it.

The paper gives the extension no Section 6 rules: what a restarting or
departing process should do with a *stack* of uncommitted checkpoints is
undefined.  The engine therefore refuses ``Fail`` and its own ``Leave`` with
a :class:`~repro.errors.ProtocolError` rather than improvise a rule.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro import tracekinds as T
from repro.core import events as EV
from repro.core import messages as M
from repro.core.app import Application
from repro.core.engine import ProtocolConfig, ProtocolEngine
from repro.core.process import CheckpointProcess
from repro.core.trees import ChkptTreeState
from repro.errors import ProtocolError
from repro.stable.storage import StableStorage
from repro.types import CheckpointRecord, ProcessId, Seq, TreeId


class ExtendedProtocolEngine(ProtocolEngine):
    """`ProtocolEngine` variant implementing the Section 3.5.3 extension."""

    def __init__(
        self,
        pid: ProcessId,
        config: Optional[ProtocolConfig] = None,
        app: Optional[Application] = None,
        storage: Optional[StableStorage] = None,
    ) -> None:
        super().__init__(pid, config=config, app=app, storage=storage)
        # Per-pending-checkpoint commit sets: seq -> {tree timestamps}.
        self.commit_sets: Dict[Seq, Set[TreeId]] = {}
        self.tree_to_seq: Dict[TreeId, Seq] = {}
        # Markers already acted upon (per paper: later ones are ignored).
        self._seen_markers: Set[TreeId] = set()

    # ------------------------------------------------------------------
    # Lifecycle: no Section 6 rule covers a stack of pending checkpoints
    # ------------------------------------------------------------------
    def _ev_fail(self, event: EV.Fail) -> None:
        raise ProtocolError(
            f"P{self.node_id}: the Section 3.5.3 extension defines no crash recovery "
            "(Section 6 rule 3) for a stack of uncommitted checkpoints"
        )

    def _depart(self, event: EV.Leave) -> None:
        raise ProtocolError(
            f"P{self.node_id}: the Section 3.5.3 extension defines no graceful departure "
            "for a stack of uncommitted checkpoints"
        )

    # ------------------------------------------------------------------
    # Markers on the normal plane
    # ------------------------------------------------------------------
    def _current_markers(self) -> Tuple[TreeId, ...]:
        newest = self.store.newchkpt
        if newest is None:
            return ()
        return tuple(sorted(self.commit_sets.get(newest.seq, set())))

    def _before_consume_normal(self, src: ProcessId, body: M.NormalBody) -> None:
        for marker in body.markers:
            if marker not in self._seen_markers:
                self._seen_markers.add(marker)
                # "Upon receiving the marker attached to a normal message,
                # P_i invokes the procedure chkpt_initiation()."
                self.initiate_checkpoint()

    # ------------------------------------------------------------------
    # b1 — initiation (no newchkpt-nil guard, no send suspension)
    # ------------------------------------------------------------------
    def initiate_checkpoint(self) -> Optional[TreeId]:
        if self.crashed or self.comm_suspended:
            return None
        tree_id = self._new_tree_id()
        self._trace(T.K_INSTANCE_START, tree=tree_id, instance="checkpoint")
        tree = self.trees.open_chkpt(tree_id, parent=None)
        record = self._push_new_checkpoint(tree_id)
        self._propagate_ext_requests(tree, record)
        self._chkpt_maybe_respond(tree)
        return tree_id

    def _push_new_checkpoint(self, tree_id: TreeId) -> CheckpointRecord:
        seq = self.ledger.advance()
        record = self.store.take_new(
            seq, self.app.snapshot(), made_at=self.now, **self._ledger_manifest()
        )
        self.commit_sets[seq] = {tree_id}
        self.tree_to_seq[tree_id] = seq
        self._sync_union_set()
        self._reset_checkpoint_timer()
        self._trace(T.K_CHKPT_TENTATIVE, seq=seq, tree=tree_id)
        return record

    def _propagate_ext_requests(self, tree: ChkptTreeState, serving: CheckpointRecord) -> None:
        """Recruit over *every* interval not certified by a committed checkpoint.

        Unlike the base algorithm (where send-suspension means each pending
        checkpoint's interval is independent), a commit here promotes the
        whole pending prefix through the serving checkpoint, so the instance
        must certify every receive since ``oldchkpt`` — the potential
        children are the senders of live messages in the interval range
        ``[oldchkpt.seq, serving.seq - 1]``.
        """
        oldchkpt = self.store.oldchkpt
        potentials = self.ledger.senders_in_range(oldchkpt.seq, serving.seq - 1)
        potentials.pop(self.node_id, None)
        tree.pending_acks |= set(potentials)
        for child, max_label in sorted(potentials.items()):
            self._send_control(child, M.ChkptReq(tree=tree.tree, max_label=max_label))
        self._schedule_rule1_for_dead(potentials)

    def _sync_union_set(self) -> None:
        """Keep the base-class union view (used by recovery) coherent."""
        self.chkpt_commit_set = set().union(*self.commit_sets.values()) if self.commit_sets else set()
        self._persist_commit_set()

    # ------------------------------------------------------------------
    # b2 — request propagation with the case analysis
    # ------------------------------------------------------------------
    def _on_chkpt_req(self, src: ProcessId, req: M.ChkptReq) -> None:
        if not self._is_true_chkpt_child_ext(src, req):
            notice = self._undone_notice_for(src, req.max_label)
            self._send_control(
                src, M.ChkptAck(tree=req.tree, positive=False, undone_notice=notice)
            )
            return
        self._send_control(src, M.ChkptAck(tree=req.tree, positive=True))
        tree = self.trees.open_chkpt_round(req.tree, parent=src)

        covering = self._covering_checkpoint(req.max_label)
        if covering is None:
            # Case 3: the referenced message was sent in the current
            # interval; a brand new checkpoint is needed.
            covering = self._push_new_checkpoint(req.tree)
        else:
            # Case 2: an existing pending checkpoint already covers it.
            self.commit_sets[covering.seq].add(req.tree)
            # The tree may now be served by a newer checkpoint than in an
            # earlier round; commits act through the newest serving one.
            self.tree_to_seq[req.tree] = max(
                covering.seq, self.tree_to_seq.get(req.tree, 0)
            )
            self._sync_union_set()
        self._propagate_ext_requests(tree, covering)
        self._chkpt_maybe_respond(tree)

    def _is_true_chkpt_child_ext(self, src: ProcessId, req: M.ChkptReq) -> bool:
        """Case 1 is the rejection case: message predates ``oldchkpt``.

        Active membership rejects a request only when the tree's serving
        checkpoint actually covers the referenced label.  Without the base
        algorithm's send-suspension a member can send *after* its serving
        checkpoint; a request referencing such a message must recruit a new
        round with a newer covering checkpoint.
        """
        serving = self.tree_to_seq.get(req.tree)
        if serving is not None and serving > req.max_label:
            return False
        if self.decisions_seen.get(req.tree) == "abort":
            return False  # aborted trees never recruit again (see base class)
        oldchkpt = self.store.oldchkpt
        if oldchkpt is None or oldchkpt.seq > req.max_label:
            return False
        if self.ledger.has_undone_send_with_label(src, req.max_label):
            return False
        return True

    def _covering_checkpoint(self, label: Seq) -> Optional[CheckpointRecord]:
        """Earliest pending checkpoint taken after the labelled send."""
        for record in self.store.pending:
            if record.seq > label:
                return record
        return None

    # ------------------------------------------------------------------
    # b3/b4 — decisions routed to the right pending checkpoint
    # ------------------------------------------------------------------
    def _chkpt_maybe_respond(self, tree: ChkptTreeState) -> None:
        if tree.closed or tree.responded or not tree.subtree_ready:
            return
        tree.responded = True
        if not tree.is_root:
            self._send_control(tree.parent, M.ReadyToCommit(tree=tree.tree))
            return
        seq = self.tree_to_seq.get(tree.tree)
        if seq is not None and tree.tree in self.commit_sets.get(seq, set()):
            self._commit_checkpoint(tree.tree)
        else:
            self._forward_decision(tree, "commit")

    def _on_commit(self, src: ProcessId, msg: M.Commit) -> None:
        self._remember_decision(msg.tree, "commit")
        seq = self.tree_to_seq.get(msg.tree)
        if seq is not None and msg.tree in self.commit_sets.get(seq, set()):
            self._commit_checkpoint(msg.tree)
            return
        tree = self.trees.chkpt.get(msg.tree)
        if tree is not None:
            self._forward_decision(tree, "commit")

    def _commit_checkpoint(self, tree_id: TreeId) -> None:
        tree = self.trees.chkpt.get(tree_id)
        was_open_root = tree is not None and tree.is_root and not tree.closed
        if tree is not None:
            self._forward_decision(tree, "commit")
        seq = self.tree_to_seq[tree_id]
        committed = self.store.commit_through(seq)
        self.committed_history.append(committed)
        self._trace(T.K_CHKPT_COMMIT, seq=committed.seq, tree=tree_id)
        # Instances attached to this or older pending checkpoints are now
        # satisfied; drop their bookkeeping — unless a later recruitment
        # round attached the instance to a still-pending newer checkpoint,
        # in which case it stays live there.
        for old_seq in [s for s in self.commit_sets if s <= seq]:
            for satisfied in self.commit_sets.pop(old_seq):
                surviving = [
                    s for s, m in self.commit_sets.items() if satisfied in m
                ]
                if surviving:
                    self.tree_to_seq[satisfied] = max(surviving)
                    continue
                self.tree_to_seq.pop(satisfied, None)
                state = self.trees.chkpt.get(satisfied)
                if state is not None and state.is_root and satisfied != tree_id:
                    self._trace(T.K_INSTANCE_COMMIT, tree=satisfied)
        self._sync_union_set()
        self._remember_decision(tree_id, "commit")
        if was_open_root:
            self._trace(T.K_INSTANCE_COMMIT, tree=tree_id)

    def _on_abort(self, src: ProcessId, msg: M.Abort) -> None:
        self._remember_decision(msg.tree, "abort")
        self._abort_instance(msg.tree)

    def _abort_instance(self, tree_id: TreeId) -> None:
        tree = self.trees.chkpt.get(tree_id)
        self.tree_to_seq.pop(tree_id, None)
        # The tree may be attached to several pending checkpoints (one per
        # recruitment round); drop it everywhere, and discard any pending
        # checkpoint left with no instance at all.
        orphaned = []
        for seq, members in list(self.commit_sets.items()):
            if tree_id in members:
                members.discard(tree_id)
                if not members:
                    orphaned.append(seq)
        for seq in orphaned:
            del self.commit_sets[seq]
            # Remove just this pending checkpoint: newer pending
            # checkpoints capture their own (still live) states.
            if self.store.discard(seq) is not None:
                self._trace(T.K_CHKPT_ABORT, seq=seq, tree=tree_id)
        self._sync_union_set()
        if tree is not None:
            was_open_root = tree.is_root and not tree.closed
            self._forward_decision(tree, "abort")
            if was_open_root:
                self._trace(T.K_INSTANCE_ABORT, tree=tree_id)

    # ------------------------------------------------------------------
    # Rollback (extension cases 1-3)
    # ------------------------------------------------------------------
    def initiate_rollback(self) -> Optional[TreeId]:
        """The initiator always rolls back to its *last* checkpoint."""
        if self.crashed:
            return None
        tree_id = self._new_tree_id()
        self._trace(T.K_INSTANCE_START, tree=tree_id, instance="rollback")
        tree = self.trees.open_roll(tree_id, parent=None)
        target = self.store.newchkpt or self.store.oldchkpt
        self._perform_rollback(tree, target)
        self._roll_maybe_complete(tree)
        return tree_id

    def _on_roll_req(self, src: ProcessId, req: M.RollReq) -> None:
        """Extension cases 1-3, with the same membership rule as the base
        algorithm (see ``RollProtocolMixin._on_roll_req``)."""
        self.ledger.install_discard_filter(src, req.undo_seq, req.undone_upto)
        member = self.trees.roll_member(req.tree)
        # Earliest interval containing a doomed receive from the requester.
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

        target = self._latest_checkpoint_at_or_before(earliest)
        self._discard_pending_after(target.seq)
        self._perform_rollback(tree, target)
        self._roll_maybe_complete(tree)

    def _latest_checkpoint_at_or_before(self, interval: Seq) -> CheckpointRecord:
        """The newest checkpoint that still predates receives in ``interval``.

        Restoring a checkpoint with sequence number ``s`` undoes every
        receive with interval ``>= s``; the newest checkpoint with
        ``seq <= interval`` therefore undoes the doomed receive while
        preserving as much later state as possible (paper cases 2.1/2.2/3).
        """
        candidates = [r for r in self.store.pending if r.seq <= interval]
        if candidates:
            return candidates[-1]
        return self.store.oldchkpt

    def _discard_pending_after(self, seq: Seq) -> None:
        """Abort every pending checkpoint newer than ``seq`` (doomed states)."""
        dropped = [record for record in self.store.pending if record.seq > seq]
        for record in dropped:
            self.store.discard(record.seq)
        for record in dropped:
            members = self.commit_sets.pop(record.seq, set())
            for tree_id in sorted(members):
                # An instance loses this serving checkpoint; fall back to an
                # older surviving one if a previous round attached it there,
                # otherwise the instance is aborted here.
                surviving = [
                    s for s, m in self.commit_sets.items() if tree_id in m
                ]
                if surviving:
                    self.tree_to_seq[tree_id] = max(surviving)
                    continue
                self.tree_to_seq.pop(tree_id, None)
                state = self.trees.chkpt.get(tree_id)
                if state is not None:
                    was_open_root = state.is_root and not state.closed
                    self._forward_decision(state, "abort")
                    if was_open_root:
                        self._trace(T.K_INSTANCE_ABORT, tree=tree_id)
                self._remember_decision(tree_id, "abort")
            self._trace(T.K_CHKPT_ABORT, seq=record.seq, tree=None)
        if dropped:
            self._sync_union_set()

    # ------------------------------------------------------------------
    # The extension never suspends sends for checkpoints.
    # ------------------------------------------------------------------
    def _suspend_send(self) -> None:  # pragma: no cover - defensive
        """No-op: the whole point of the extension."""

    def _make_new_checkpoint(self, tree_id: TreeId) -> None:  # pragma: no cover
        raise NotImplementedError("extension uses _push_new_checkpoint")


class ExtendedCheckpointProcess(CheckpointProcess):
    """Adapter for :class:`ExtendedProtocolEngine`."""

    engine_class = ExtendedProtocolEngine
