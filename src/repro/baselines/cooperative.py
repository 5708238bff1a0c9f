"""Cooperative partial snapshots (Nakamura et al., arXiv:2103.15285).

The sixth comparison baseline: where Leu-Bhargava and Koo-Toueg recruit
along the *message-dependency tree* and Chandy-Lamport floods every
channel, the cooperative partial-snapshot algorithm (CPS) scopes each
snapshot instance to the initiator's *dependency set* — the processes it
exchanged messages with since its last committed checkpoint — and lets
concurrent overlapping instances **cooperate** instead of aborting one
another:

* the initiator takes a tentative checkpoint and sends ``SnapReq`` to
  every member of its dependency set (on FIFO channels the request plays
  the marker role: it precedes every post-checkpoint message on the same
  channel, so no recruit records an orphan receive);
* a recruited process takes its own tentative checkpoint and *expands the
  group* with its own dependencies (transitively), reporting the additions
  upward in its ``SnapAck`` so the initiator learns the final roster;
* a process that already holds a tentative checkpoint for another
  instance does **not** take a second one: if that checkpoint still
  reflects its every send, it lends it to the new instance and acks
  immediately — one checkpoint serves every instance whose groups overlap
  (the paper's "cooperation").  A tentative made stale by later sends
  cannot be lent (the borrower's cut would orphan those sends), so the
  process answers ``SnapNack`` and the requesting instance aborts — the
  conservative stand-in for the paper's full group-merging machinery;
* messages sent *while holding* a tentative piggyback the sharing
  instances' ids (the paper's snapshot-id propagation): such a message is
  post-cut for those instances, so a receiver that consumes it without
  already holding a cut of its own for them records the instances as
  *post-cut contaminated* and answers any later ``SnapReq`` for them with
  ``SnapNack`` — otherwise its tentative would reflect a receive the
  group member's cut never sent (an orphan the early group member cannot
  detect, since late recruits join through *other* members' requests);
* once every (transitively recruited) member has acked, the initiator
  broadcasts ``SnapCommit`` to the collected group.  Committing a lent
  checkpoint is idempotent, and a shared tentative survives the abort of
  one sharing instance while another is still live.

A crash-safety valve replaces the paper's failure handling: the initiator
arms one timer per instance and aborts if the group does not complete in
time.  Like Chandy-Lamport there is no rollback protocol: the comparison
metrics of interest are *scope* (group size vs. n) and message cost under
identical workloads — and, for E-CHURN, how a dependency-scoped protocol
rides membership churn, since a join only matters once the joiner appears
in someone's dependency set and a graceful leave simply drops the
departed pid from every open group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro import tracekinds as T
from repro.baselines.base import BaselineProcess
from repro.core import events as EV
from repro.core.engine import ProtocolEngine
from repro.priorities import PRIORITY_CHECKPOINT
from repro.types import ProcessId, TreeId


@dataclass(frozen=True)
class SnapReq:
    """Recruit the receiver into a partial-snapshot group."""

    tree: TreeId
    kind = "snap_req"
    priority = PRIORITY_CHECKPOINT


@dataclass(frozen=True)
class SnapAck:
    """Subtree complete; ``added`` are the members it recruited."""

    tree: TreeId
    added: Tuple[ProcessId, ...] = ()
    kind = "snap_ack"
    priority = PRIORITY_CHECKPOINT


@dataclass(frozen=True)
class SnapNack:
    """Recruitment refused: the receiver's tentative is stale and cannot
    be lent, so the requesting instance must abort."""

    tree: TreeId
    kind = "snap_nack"
    priority = PRIORITY_CHECKPOINT


@dataclass(frozen=True)
class SnapCommit:
    """Initiator's decision: make the tentative checkpoint permanent."""

    tree: TreeId
    kind = "snap_commit"
    priority = PRIORITY_CHECKPOINT


@dataclass(frozen=True)
class SnapAbort:
    """Abort the instance; propagated down the recruitment tree."""

    tree: TreeId
    kind = "snap_abort"
    priority = PRIORITY_CHECKPOINT


@dataclass
class CoopState:
    """Per-instance bookkeeping at one group member."""

    tree: TreeId
    parent: Optional[ProcessId] = None  # None at the initiator
    pending: Set[ProcessId] = field(default_factory=set)
    # Members this subtree added beyond what the parent knew; reported
    # upward so the initiator can address the commit/abort broadcast.
    recruited: Set[ProcessId] = field(default_factory=set)
    group: Set[ProcessId] = field(default_factory=set)  # initiator only
    responded: bool = False
    closed: bool = False


class CooperativeEngine(ProtocolEngine):
    """Dependency-scoped snapshots with cooperative instance sharing."""

    #: Initiator-side deadline before an instance is presumed wedged
    #: (a member crashed before acking) and aborted.
    COOP_TIMEOUT = 50.0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.coop: Dict[TreeId, CoopState] = {}
        # Every instance sharing the currently-held tentative checkpoint
        # (the taker plus borrowers).  The tentative is discarded only when
        # the last sharer aborts; any sharer's commit commits it for all.
        self.tentative_trees: Set[TreeId] = set()
        # Committed group sizes, for the scope metric in E-CHURN.
        self.snapshot_group_sizes: List[int] = []
        # Instances whose cut this process's state has already outrun: we
        # consumed a message a group member sent *after* its tentative for
        # them.  Joining such an instance would make that receive an
        # orphan, so SnapReqs for these trees are refused.  Entries are
        # pruned when the instance's decision reaches us; a never-heard
        # decision leaves a stale (harmlessly conservative) entry.
        self.post_cut: Set[TreeId] = set()

    # ------------------------------------------------------------------
    # Dependency set and tentative-checkpoint plumbing
    # ------------------------------------------------------------------
    def _dependency_set(self) -> Set[ProcessId]:
        """Processes exchanged with since the last committed checkpoint."""
        base = self.store.oldchkpt.seq if self.store.oldchkpt is not None else 0
        deps = set(self.ledger.senders_in_range(base, self.ledger.n))
        deps |= self.ledger.live_receivers_since(base)
        deps.discard(self.node_id)
        deps -= self.departed_peers
        return deps & set(self.peers)

    def _take_tentative(self, tree_id: TreeId) -> None:
        seq = self.ledger.advance()
        self.store.take_new(
            seq, self.app.snapshot(), made_at=self.now, **self._ledger_manifest()
        )
        self.tentative_trees = {tree_id}
        self._trace(T.K_CHKPT_TENTATIVE, seq=seq, tree=tree_id)

    def _tentative_is_lendable(self) -> bool:
        """A tentative can be lent only while it reflects every send this
        process has made — a later send would be an orphan in the
        borrower's cut."""
        seq = self.store.newchkpt.seq
        return not self.ledger.live_receivers_since(seq)

    def _commit_local(self, tree_id: TreeId) -> None:
        """Commit the tentative checkpoint (idempotent for shared ones)."""
        if self.store.newchkpt is None or tree_id not in self.tentative_trees:
            return  # an overlapping instance already committed it
        seq = self.store.newchkpt.seq
        self.committed_history.append(self.store.commit_through(seq))
        self.tentative_trees = set()
        self._trace(T.K_CHKPT_COMMIT, seq=seq, tree=tree_id)

    def _release_tentative(self, tree_id: TreeId) -> None:
        """Drop one sharer; discard the tentative once nobody shares it."""
        self.tentative_trees.discard(tree_id)
        if not self.tentative_trees and self.store.newchkpt is not None:
            self.store.discard(self.store.newchkpt.seq)

    # ------------------------------------------------------------------
    # Snapshot-id piggybacking (post-cut receive detection)
    # ------------------------------------------------------------------
    def _current_markers(self) -> tuple:
        """Normal sends carry the ids of every instance sharing the held
        tentative: for those instances this send is post-cut."""
        if not self.tentative_trees:
            return ()
        return tuple(
            sorted(self.tentative_trees, key=lambda t: (t.initiator, t.initiation_seq))
        )

    def _before_consume_normal(self, src: ProcessId, body) -> None:
        for tree in body.markers:
            if tree not in self.tentative_trees:
                # The sender's cut for ``tree`` predates this message; ours
                # (if we are ever recruited) would not.  Remember the
                # mismatch so we refuse to join with an orphaning cut.
                self.post_cut.add(tree)

    # ------------------------------------------------------------------
    # Initiation
    # ------------------------------------------------------------------
    def initiate_checkpoint(self) -> Optional[TreeId]:
        if self.crashed:
            return None
        if self.store.newchkpt is not None:
            # Already inside an instance; its commit covers this request.
            return None
        tree_id = self._new_tree_id()
        self._trace(T.K_INSTANCE_START, tree=tree_id, instance="checkpoint")
        self._take_tentative(tree_id)
        deps = self._dependency_set()
        state = CoopState(tree=tree_id, pending=set(deps), group={self.node_id} | deps)
        self.coop[tree_id] = state
        if not deps:
            self._commit_instance(state)
            return tree_id
        for pid in sorted(deps):
            self._send_control(pid, SnapReq(tree=tree_id))
        self._set_timer(
            self._timer_name(tree_id),
            self.COOP_TIMEOUT,
            lambda: self._abort_instance_coop(self.coop.get(tree_id), "timeout"),
        )
        return tree_id

    @staticmethod
    def _timer_name(tree_id: TreeId) -> str:
        return f"coop-{tree_id.initiator}-{tree_id.initiation_seq}"

    # ------------------------------------------------------------------
    # Recruitment (member side)
    # ------------------------------------------------------------------
    def _on_snap_req(self, src: ProcessId, msg: SnapReq) -> None:
        if msg.tree in self.coop:
            # A second recruiter reached us; we are already in the group.
            self._send_control(src, SnapAck(tree=msg.tree))
            return
        if msg.tree in self.post_cut:
            # We already consumed a message some group member sent after
            # its cut for this instance; any cut we contribute now would
            # record that receive as an orphan.
            self._send_control(src, SnapNack(tree=msg.tree))
            return
        if self.store.newchkpt is not None:
            if self._tentative_is_lendable():
                # Cooperative sharing: lend the tentative checkpoint held
                # for another instance instead of aborting or blocking.
                self.tentative_trees.add(msg.tree)
            else:
                self._send_control(src, SnapNack(tree=msg.tree))
                return
        else:
            self._take_tentative(msg.tree)
        # Whether the cut is fresh or lent, the borrowing instance must
        # recruit this cut's dependency set: every sender whose message
        # the cut reflects needs a matching cut *in this group* — the
        # instance that originally recruited the lender may abort and
        # discard those matching cuts while this one goes on to commit.
        # (The current ledger's dependency set is a superset of the cut's;
        # extra members cost messages, missing members cost consistency.)
        deps = self._dependency_set() - {src}
        state = CoopState(
            tree=msg.tree, parent=src, pending=set(deps), recruited=set(deps)
        )
        self.coop[msg.tree] = state
        if not deps:
            state.responded = True
            self._send_control(src, SnapAck(tree=msg.tree))
            return
        for pid in sorted(deps):
            self._send_control(pid, SnapReq(tree=msg.tree))

    def _on_snap_ack(self, src: ProcessId, msg: SnapAck) -> None:
        state = self.coop.get(msg.tree)
        if state is None or state.closed:
            return
        state.pending.discard(src)
        state.recruited |= set(msg.added)
        state.group |= set(msg.added)
        self._coop_maybe_complete(state)

    def _on_snap_nack(self, src: ProcessId, msg: SnapNack) -> None:
        state = self.coop.get(msg.tree)
        if state is None or state.closed:
            return
        if state.parent is not None:
            self._send_control(state.parent, SnapNack(tree=msg.tree))
        self._abort_instance_coop(state, "nack")

    def _coop_maybe_complete(self, state: CoopState) -> None:
        if state.closed or state.pending:
            return
        if state.parent is None:
            self._commit_instance(state)
        elif not state.responded:
            state.responded = True
            self._send_control(
                state.parent,
                SnapAck(tree=state.tree, added=tuple(sorted(state.recruited))),
            )

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------
    def _commit_instance(self, state: CoopState) -> None:
        state.closed = True
        self.cancel_timer(self._timer_name(state.tree))
        for pid in sorted(state.group - {self.node_id}):
            self._send_control(pid, SnapCommit(tree=state.tree))
        self._commit_local(state.tree)
        self.snapshot_group_sizes.append(len(state.group))
        self._trace(T.K_INSTANCE_COMMIT, tree=state.tree, group=len(state.group))

    def _on_snap_commit(self, src: ProcessId, msg: SnapCommit) -> None:
        self.post_cut.discard(msg.tree)
        state = self.coop.get(msg.tree)
        if state is None or state.closed:
            return
        state.closed = True
        self._commit_local(msg.tree)

    def _abort_instance_coop(self, state: Optional[CoopState], reason: str) -> None:
        if state is None or state.closed:
            return
        state.closed = True
        # Propagate down the recruitment tree (and, at the initiator, to
        # the whole collected group); duplicates are absorbed by the
        # closed-state guard at the receiver.
        targets = (state.group | state.recruited | state.pending) - {self.node_id}
        for pid in sorted(targets):
            self._send_control(pid, SnapAbort(tree=state.tree))
        self._release_tentative(state.tree)
        if state.parent is None:
            self.cancel_timer(self._timer_name(state.tree))
            self._trace(T.K_INSTANCE_ABORT, tree=state.tree, reason=reason)

    def _on_snap_abort(self, src: ProcessId, msg: SnapAbort) -> None:
        self.post_cut.discard(msg.tree)
        state = self.coop.get(msg.tree)
        if state is None or state.closed:
            return
        state.closed = True
        for pid in sorted((state.recruited | state.pending) - {self.node_id, src}):
            self._send_control(pid, SnapAbort(tree=msg.tree))
        self._release_tentative(msg.tree)

    # ------------------------------------------------------------------
    # Membership churn: drop departed members from open groups
    # ------------------------------------------------------------------
    def _ev_leave(self, event: EV.Leave) -> None:
        super()._ev_leave(event)
        if event.pid == self.node_id:
            for state in self.coop.values():
                state.closed = True
            self.tentative_trees = set()
            return
        for state in list(self.coop.values()):
            if state.closed:
                continue
            state.pending.discard(event.pid)
            state.group.discard(event.pid)
            state.recruited.discard(event.pid)
            self._coop_maybe_complete(state)

    # ------------------------------------------------------------------
    # No rollback protocol (like Chandy-Lamport, CPS detects states)
    # ------------------------------------------------------------------
    def initiate_rollback(self) -> Optional[TreeId]:
        return None

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch_control(self, src: ProcessId, body) -> None:
        if isinstance(body, (SnapReq, SnapAck, SnapNack, SnapCommit, SnapAbort)):
            self._trace(T.K_CTRL_RECEIVE, src=src, msg_type=body.kind, tree=body.tree)
            handler = {
                SnapReq: self._on_snap_req,
                SnapAck: self._on_snap_ack,
                SnapNack: self._on_snap_nack,
                SnapCommit: self._on_snap_commit,
                SnapAbort: self._on_snap_abort,
            }[type(body)]
            handler(src, body)
            return
        super()._dispatch_control(src, body)


class CooperativeProcess(BaselineProcess):
    """Adapter driving :class:`CooperativeEngine`."""

    algorithm_name = "cooperative"
    engine_class = CooperativeEngine
