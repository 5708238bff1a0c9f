"""The sans-IO Leu-Bhargava protocol engine.

:class:`ProtocolEngine` is a pure state machine.  It holds **zero**
references to ``Node``, ``Scheduler`` or ``Trace``, imports no kernel, reads
no clock and touches no socket; the same engine instance runs unchanged under
the discrete-event simulation, the live asyncio runtime, and the
:mod:`repro.mc` interleaving explorer.

**Outputs.**  What happens *per message* is a synchronous call on one of
three *ports* — host objects the engine holds: the hosted application
(``app``), stable storage (``storage``) and the :class:`Host` (``host``),
which has exactly ``send(envelope)`` and ``trace(kind, fields)``.
Checkpoints — ``oldchkpt`` and the stack of uncommitted ones, at most one
deep in the base algorithm — live in the one
:class:`~repro.stable.checkpoint.CheckpointStore` the engine builds over that
storage (every transition written through), and the Section 6 commit set and
decision log are put/appended there and read back on ``Recover`` — the paper
keeps all three "in stable storage" and restarts from it.  What happens *per
decision, failure or departure* — a timer armed or cancelled, a decision
shown to the spoolers, a spooled envelope redelivered, an inquiry broadcast,
a handoff — is a typed effect from :mod:`repro.core.effects`, applied by
``engine._sink`` the moment it is emitted and collected by ``handle`` for its
caller.  Either way the output
takes place at the instant the engine produces it, which preserves the exact
interleaving of traces, sends and synchronous redeliveries (a spool
redelivery re-enters the engine mid-event).

**Inputs.**  A driver stamps the environment once (:meth:`EngineBase.stamp`:
the kernel time and the status monitor's view) and calls the method that
does the work — ``on_envelope``, ``_on_timer_fired``, ``send_app_message``,
``local_step``, ``apply_app_op`` — which is what the kernel adapter does for
the five per-message inputs.  ``handle(event)`` is the door for inputs *as
data* (the typed events of :mod:`repro.core.events`: lifecycle and
membership from the adapter, everything from tests and the model checker):
it stamps from the event and dispatches to those same methods, and returns
the effects the event produced.

Layering:

* this module — engine state, the two input doors, the output plumbing and
  the normal-message plane;
* :mod:`repro.core.checkpoint_protocol` — procedures b1-b4 (mixin);
* :mod:`repro.core.rollback_protocol` — procedures b5-b8 (mixin);
* :mod:`repro.core.recovery` — the Section 6 failure rules (mixin);
* :mod:`repro.core.process` — the kernel adapter: the host port, the typed
  inputs and the effect interpreter.

Suspension model (paper 3.5.2 comments):

* a pending ``newchkpt`` suspends *sending* normal messages only — receives
  and local computation continue;
* membership in an unfinished rollback instance suspends *sending and
  receiving*; incoming normal messages are discarded;
* application sends issued while sending is suspended are queued in the
  output queue and flushed on resume;
* a rollback clears the output queue (queued messages belong to the undone
  computation).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.compat import slotted_dataclass
from repro.core import effects as FX
from repro.core import events as EV
from repro.core import messages as M
from repro.core.app import Application, CounterApp
from repro.core.checkpoint_protocol import ChkptProtocolMixin
from repro.core.labels import LabelLedger
from repro.core.membership_protocol import MembershipMixin
from repro.core.recovery import RecoveryMixin
from repro.core.rollback_protocol import RollProtocolMixin
from repro.core.trees import TreeRegistry
from repro.errors import ProtocolError
from repro.net.message import NORMAL, Envelope, control, normal
from repro.priorities import PRIORITY_NORMAL, PRIORITY_TIMER
from repro.stable.checkpoint import CheckpointStore
from repro.stable.snapshot import FrozenList
from repro.stable.storage import InMemoryStableStorage, StableStorage
from repro.tracekinds import (
    K_CTRL_RECEIVE,
    K_CTRL_SEND,
    K_DISCARD,
    K_RECEIVE,
    K_RESUME_ALL,
    K_RESUME_SEND,
    K_SEND,
    K_SUSPEND_ALL,
    K_SUSPEND_SEND,
)
from repro.types import MessageId, ProcessId, SimTime, TreeId


@slotted_dataclass(frozen=True)
class ProtocolConfig:
    """Tunables for a :class:`ProtocolEngine` / ``CheckpointProcess``.

    ``checkpoint_interval`` — period of the autonomous checkpoint timer
    (condition b1); ``None`` disables the timer (tests and scripted scenarios
    call ``initiate_checkpoint`` directly).

    ``failure_resilience`` — enable the Section 6 exception handlers (rules
    1-6).  Off by default so the base algorithm can be studied in isolation.

    ``inquiry_retry_interval`` — how often a blocked process re-broadcasts a
    rule-6 decision inquiry while no answer arrives.

    The config is frozen and validated at construction: negative timeouts
    make the protocol silently mis-schedule, so they are rejected here rather
    than surfacing as a confusing kernel error mid-run.
    """

    checkpoint_interval: Optional[SimTime] = None
    failure_resilience: bool = False
    inquiry_retry_interval: SimTime = 10.0

    def __post_init__(self) -> None:
        if self.checkpoint_interval is not None and self.checkpoint_interval < 0:
            raise ValueError(f"checkpoint_interval must be >= 0, got {self.checkpoint_interval}")
        if self.inquiry_retry_interval < 0:
            raise ValueError(
                f"inquiry_retry_interval must be >= 0, got {self.inquiry_retry_interval}"
            )


class Host:
    """The engine's per-message output port.

    A kernel adapter (``CheckpointProcess``, on every kernel) or a recording
    harness (``repro.mc``) supplies these two methods; this default is the
    host of an engine nobody listens to — sends and traces vanish.
    """

    def send(self, envelope: Envelope) -> None:
        """Hand ``envelope`` to the network."""

    def trace(self, kind: str, fields: Dict[str, Any]) -> None:
        """Record a trace event; the host stamps its time and this pid."""


class EngineBase:
    """Engine state, the two input doors and output plumbing shared by variants."""

    def __init__(
        self,
        pid: ProcessId,
        config: Optional[ProtocolConfig] = None,
        app: Optional[Application] = None,
        storage: Optional[StableStorage] = None,
    ) -> None:
        self.node_id = pid
        self.config = config or ProtocolConfig()
        self.app: Application = app or CounterApp(pid)
        self.storage: StableStorage = storage or InMemoryStableStorage()
        self.host = Host()  # the driver assigns its own, as it does ``_sink``
        self.store = CheckpointStore(self.storage)
        self.ledger = LabelLedger(pid)
        self.trees = TreeRegistry()
        self.chkpt_commit_set: set = set()
        self.roll_restart_set: set = set()
        self.output_queue: List[Tuple[ProcessId, Any]] = []
        self.send_suspended = False   # pending newchkpt blocks normal sends
        self.comm_suspended = False   # unfinished rollback blocks send+receive
        # Decisions this process has observed, for Section 6 inquiries.
        self.decisions_seen: Dict[TreeId, str] = {}
        self._recovering = False
        self._open_inquiries: Dict[TreeId, str] = {}
        self._pending_spool: List[Envelope] = []
        # Analysis-only archive of every committed checkpoint, in order.
        self.committed_history: List[Any] = []
        self.crashed = False
        # Graceful-departure state (repro.core.membership_protocol): set
        # once by a Leave event addressed to this engine; ``adopted`` maps
        # departed pids to the HandoffMsg this engine accepted for them.
        self.departed = False
        self.adopted: Dict[ProcessId, Any] = {}
        # Peers that departed gracefully: excluded from instance
        # recruitment (their obligations travelled in the handoff).
        self.departed_peers: Set[ProcessId] = set()
        self.peers: Tuple[ProcessId, ...] = ()
        # Host-settable quiesce switch: while False, the checkpoint timer
        # keeps re-arming but initiates nothing, so a host can drain every
        # in-flight 2PC round before cutting a run (no tree is ever cut
        # between the root's commit and a cohort's).
        self.autonomous_checkpoints = True
        #: Result of the last Initiate* event (the new tree's id or None).
        self.last_result: Optional[TreeId] = None

        self._now: SimTime = 0.0
        # Environment snapshots stamped with the last input (see events.py).
        self._down: Optional[frozenset] = None
        self._status_down: Optional[Tuple[ProcessId, ...]] = None
        self._spool_decisions: Optional[Tuple[Any, ...]] = None
        self._timer_actions: Dict[str, Callable[[], None]] = {}
        self._counters: Dict[str, int] = {}
        # Effect plumbing: eager per-effect sink + per-handle collection list.
        self._sink: Optional[Callable[[Any], None]] = None
        self._effects: Optional[List[Any]] = None

    # ------------------------------------------------------------------
    # The sans-IO entrypoint
    # ------------------------------------------------------------------
    def stamp(
        self,
        at: SimTime,
        down: Optional[frozenset] = None,
        status_down: Optional[Tuple[ProcessId, ...]] = None,
    ) -> None:
        """Note the environment of the input about to be applied: the kernel
        time and the status monitor's view (fields as in :mod:`events`)."""
        self._now = at
        self._down = down
        self._status_down = status_down

    def handle(self, event: EV.Event) -> List[FX.Effect]:
        """Apply one input given as data; returns the effects it produced.

        Reentrant: a ``Redeliver`` effect applied by an eager sink delivers
        an envelope synchronously, which re-enters the engine mid-event; the
        collection list is saved and restored so each call returns exactly
        its own effects.
        """
        # Exact-class table lookup: one dict probe per event.
        name = _EVENT_DISPATCH.get(event.__class__)
        if name is None:
            raise ProtocolError(f"unknown engine event {event!r}")
        previous = self._effects
        collected: List[FX.Effect] = []
        self._effects = collected
        self.stamp(getattr(event, "at", self._now), getattr(event, "down", None),
                   getattr(event, "status_down", None))
        self.last_result = None
        try:
            getattr(self, name)(event)
        finally:
            self._effects = previous
        return collected

    # Per-event adapters bound through _EVENT_DISPATCH (uniform signature).
    def _ev_deliver(self, event: EV.Deliver) -> None:
        self.on_envelope(event.envelope)

    def _ev_timer_fired(self, event: EV.TimerFired) -> None:
        self._on_timer_fired(event.name)

    def _ev_app_send(self, event: EV.AppSend) -> None:
        self.send_app_message(event.dst, event.payload)

    def _ev_local_step(self, event: EV.LocalStep) -> None:
        self.local_step()

    def _ev_app_op(self, event: EV.AppOp) -> None:
        self.apply_app_op(event.op)

    def _ev_initiate_checkpoint(self, event: EV.InitiateCheckpoint) -> None:
        self.last_result = self.initiate_checkpoint()

    def _ev_initiate_rollback(self, event: EV.InitiateRollback) -> None:
        self.last_result = self.initiate_rollback()

    def _ev_start(self, event: EV.Start) -> None:
        self.peers = tuple(event.peers)
        self.on_start()

    def _ev_fail(self, event: EV.Fail) -> None:
        self.crashed = True
        self._timer_actions.clear()
        self.on_crash()

    def _ev_recover(self, event: EV.Recover) -> None:
        self.crashed = False
        self.on_recover(event)

    def _ev_failure_notice(self, event: EV.FailureNotice) -> None:
        self.on_failure_notice(event.pid)

    def _ev_recovery_notice(self, event: EV.RecoveryNotice) -> None:
        self.on_recovery_notice(event.pid)

    def _emit(self, effect: FX.Effect) -> None:
        if self._effects is not None:
            self._effects.append(effect)
        if self._sink is not None:
            self._sink(effect)

    # ------------------------------------------------------------------
    # Kernel-facing vocabulary (a call on the host port, or an effect)
    # ------------------------------------------------------------------
    @property
    def now(self) -> SimTime:
        """Time of the input currently being applied."""
        return self._now

    def _trace(self, kind: str, **fields: Any) -> None:
        self.host.trace(kind, fields)

    def _set_timer(
        self,
        name: str,
        delay: SimTime,
        action: Callable[[], None],
        priority: int = PRIORITY_TIMER,
        jitter: Optional[Tuple[str, float, float]] = None,
    ) -> None:
        self._timer_actions[name] = action
        self._emit(FX.SetTimer(name=name, delay=delay, priority=priority, jitter=jitter))

    def cancel_timer(self, name: str) -> None:
        self._timer_actions.pop(name, None)
        self._emit(FX.CancelTimer(name=name))

    def _on_timer_fired(self, name: str) -> None:
        action = self._timer_actions.pop(name, None)
        if action is not None and not self.crashed:
            action()

    def _next_id(self, key: str) -> int:
        value = self._counters.get(key, 0)
        self._counters[key] = value + 1
        return value

    def _new_tree_id(self) -> TreeId:
        return TreeId(self.node_id, self._next_id("tree"))

    def _new_msg_id(self) -> MessageId:
        return MessageId(self.node_id, self._next_id("msg"))

    def _believed_down(self, pid: ProcessId) -> bool:
        """Is ``pid`` believed failed by the status monitor?

        Only meaningful with failure resilience on; without it the base
        algorithm assumes no failures and never consults the detector.  The
        detector's view rides on the event being handled (``down``).
        """
        if not self.config.failure_resilience:
            return False
        return self._down is not None and pid in self._down

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        """Install the initial committed checkpoint and arm the b1 timer.

        The birth checkpoint has sequence number 1 and the interval counter
        starts there too, so the first interval's messages carry label 1 and
        label 0 stays free as the "nothing received" sentinel (paper Fig. 2).
        """
        self.ledger.n = 1
        self.store.initialize(
            self.app.snapshot(), made_at=self.now, meta=self._ledger_manifest()
        )
        self.committed_history = [self.store.oldchkpt]
        self._reset_checkpoint_timer()

    def _ledger_manifest(self) -> Dict[str, Any]:
        """Which live sends/receives the state being checkpointed reflects.

        Stored in each checkpoint's ``meta`` purely for the analysis layer:
        the C1/C2 checkers and the minimality theorems are verified against
        these manifests (see :mod:`repro.analysis.consistency`).  The
        protocol itself never reads them.  The ledger keeps both sorted;
        each is copied once, already frozen, so ``freeze`` passes it through
        and the in-memory record and stable storage share the one copy.
        """
        return {
            "recv": FrozenList(self.ledger.live_received_keys),
            "sent": FrozenList(self.ledger.live_sent_keys),
        }

    def _reset_checkpoint_timer(self) -> None:
        """"After P_i makes a new checkpoint, its checkpoint timer is reset."""
        if self.config.checkpoint_interval is None:
            return
        self._set_timer(
            "checkpoint",
            self.config.checkpoint_interval,
            self._checkpoint_timer_fired,
            jitter=("ckpt-timer", 0.0, 0.1),
        )

    def _checkpoint_timer_fired(self) -> None:
        if self.autonomous_checkpoints:
            self.initiate_checkpoint()
        self._reset_checkpoint_timer()

    # ------------------------------------------------------------------
    # Suspension bookkeeping
    # ------------------------------------------------------------------
    @property
    def can_send_normal(self) -> bool:
        return not (self.crashed or self.send_suspended or self.comm_suspended)

    def _suspend_send(self) -> None:
        if not self.send_suspended:
            self.send_suspended = True
            self._trace(K_SUSPEND_SEND)

    def _resume_send(self) -> None:
        if self.send_suspended:
            self.send_suspended = False
            self._trace(K_RESUME_SEND)
            self._flush_output_queue()

    def _suspend_comm(self) -> None:
        if not self.comm_suspended:
            self.comm_suspended = True
            self._trace(K_SUSPEND_ALL)

    def _resume_comm(self) -> None:
        if self.comm_suspended:
            self.comm_suspended = False
            self._trace(K_RESUME_ALL)
            self._flush_output_queue()
            self._drain_pending_spool()

    def _flush_output_queue(self) -> None:
        if not self.can_send_normal:
            return
        queued, self.output_queue = self.output_queue, []
        for dst, payload in queued:
            self._transmit_normal(dst, payload)

    # ------------------------------------------------------------------
    # Normal-message plane (workload-facing API)
    # ------------------------------------------------------------------
    def send_app_message(self, dst: ProcessId, payload: Any) -> None:
        """Application-level send; queued if sending is currently suspended."""
        if self.crashed:
            return
        if self.can_send_normal:
            self._transmit_normal(dst, payload)
        else:
            self.output_queue.append((dst, payload))

    def local_step(self) -> None:
        """One unit of local application computation (never suspended)."""
        if not self.crashed:
            self.app.local_step()

    def apply_app_op(self, op: Any) -> None:
        """Apply one tracked application mutation (see :class:`EV.AppOp`).

        The hosted application interprets ``op`` and returns the trace
        records describing what changed; emitting them through the engine's
        trace effect ties every mutation to this process's event timeline,
        which is what the job-outcome audit reconstructs against checkpoints
        and rollbacks.  Dropped silently while crashed (the driver retries),
        rejected loudly when the hosted app has no tracked-mutation support.
        """
        if self.crashed:
            return
        apply = getattr(self.app, "apply", None)
        if apply is None:
            raise ProtocolError(
                f"application {type(self.app).__name__!r} on P{self.node_id} "
                "does not support tracked mutations (no apply method)"
            )
        for kind, fields in apply(op):
            self.host.trace(kind, fields)

    def _transmit_normal(self, dst: ProcessId, payload: Any) -> None:
        msg_id = self._new_msg_id()
        label = self.ledger.record_send(msg_id, dst)
        body = M.NormalBody(
            payload=payload,
            markers=self._current_markers(),
            incarnation=self._current_incarnation(),
        )
        self._trace(K_SEND, msg_id=msg_id, dst=dst, label=label, payload=payload)
        self.host.send(normal(self.node_id, dst, msg_id, label, body))

    def _current_markers(self) -> tuple:
        """Markers piggybacked on normal sends (empty in the base algorithm;
        the Section 3.5.3 extension overrides this)."""
        return ()

    def _current_incarnation(self) -> int:
        """Sender incarnation stamp (always 0 here; Tamir-Séquin overrides)."""
        return 0

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def on_envelope(self, envelope: Envelope) -> None:
        if self.crashed:
            return
        if envelope.category == NORMAL:  # ``is_normal`` without the property call
            self._on_normal(envelope)
        else:
            self._dispatch_control(envelope.src, envelope.body)

    def _on_normal(self, envelope: Envelope) -> None:
        src, label, msg_id = envelope.src, envelope.label, envelope.msg_id
        if self.comm_suspended:
            # "The suspend statement causes all subsequent incoming messages
            # to be discarded."
            self._trace(K_DISCARD, msg_id=msg_id, src=src, label=label, reason="roll_suspended")
            return
        if self.ledger.should_discard(src, label):
            # The sender undid this message before we ever consumed it.
            self._trace(K_DISCARD, msg_id=msg_id, src=src, label=label, reason="undone_in_transit")
            return
        body: M.NormalBody = envelope.body
        self._before_consume_normal(src, body)
        self.ledger.record_receive(msg_id, src, label)
        self._trace(K_RECEIVE, msg_id=msg_id, src=src, label=label)
        self.app.handle_message(src, body.payload)

    def _before_consume_normal(self, src: ProcessId, body: M.NormalBody) -> None:
        """Extension hook: act on piggybacked markers before consuming."""

    def _dispatch_control(self, src: ProcessId, body: Any) -> None:
        self.host.trace(
            K_CTRL_RECEIVE, {"src": src, "msg_type": body.kind, "tree": getattr(body, "tree", None)}
        )
        name = _CONTROL_DISPATCH.get(body.__class__)
        if name is not None:  # unknown control bodies are ignored
            getattr(self, name)(src, body)

    def _send_control(self, dst: ProcessId, body: Any) -> None:
        fields = {"dst": dst, "msg_type": body.kind, "tree": getattr(body, "tree", None)}
        if hasattr(body, "positive"):
            fields["positive"] = body.positive
        self.host.trace(K_CTRL_SEND, fields)
        self.host.send(control(self.node_id, dst, body))

    def _send_decision(self, dsts: Sequence[ProcessId], body: Any) -> None:
        """Send one commit/abort/restart to each of ``dsts``.

        Decisions are also observed by spoolers so restarting processes can
        learn them (Section 6, rule 3) — once per decision sent to anyone,
        not once per recipient.
        """
        if dsts:
            self._emit(FX.ObserveDecision(kind=body.kind, tree=body.tree))
        for dst in dsts:
            self._send_control(dst, body)

    # ------------------------------------------------------------------
    # Shared protocol helpers
    # ------------------------------------------------------------------
    def _remember_decision(self, tree_id: Optional[TreeId], decision: str) -> None:
        """Record an observed instance decision for Section 6 inquiries.

        With failure resilience on, the record is also persisted: a decision
        a process applied to its stable checkpoints must survive its own
        crash, or a recovering peer's inquiry could go unanswered forever
        while the decided state lives on.
        """
        if tree_id is None or tree_id in self.decisions_seen:
            return
        self.decisions_seen[tree_id] = decision
        if self.config.failure_resilience:
            self.storage.append(
                "decisions", [tree_id.initiator, tree_id.initiation_seq, decision]
            )

    def _load_decisions(self) -> Dict[TreeId, str]:
        return {TreeId(i, s): d for i, s, d in self.storage.read_log("decisions")}

    def _persist_commit_set(self) -> None:
        """Keep chkpt_commit_set recoverable: rule 3 needs it after a crash."""
        self.storage.put(
            "commit_set",
            sorted((t.initiator, t.initiation_seq) for t in self.chkpt_commit_set),
        )

    def _load_commit_set(self) -> set:
        return {TreeId(i, s) for i, s in self.storage.get("commit_set", [])}

    # Overridden by the protocol mixins; declared so the base class is
    # complete for the event dispatcher.
    def initiate_checkpoint(self) -> Optional[TreeId]:  # pragma: no cover
        raise NotImplementedError

    def initiate_rollback(self) -> Optional[TreeId]:  # pragma: no cover
        raise NotImplementedError

    def on_crash(self) -> None:  # pragma: no cover
        raise NotImplementedError

    def on_recover(self, event: EV.Recover) -> None:  # pragma: no cover
        raise NotImplementedError

    def on_failure_notice(self, pid: ProcessId) -> None:  # pragma: no cover
        raise NotImplementedError

    def on_recovery_notice(self, pid: ProcessId) -> None:  # pragma: no cover
        raise NotImplementedError

    def _drain_pending_spool(self) -> None:  # pragma: no cover
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self.crashed else "up"
        return f"<{type(self).__name__} P{self.node_id} {state} n={self.ledger.n}>"


#: Exact-class → handler-name tables for the two dispatch hot paths.  Names
#: (not bound methods) so the protocol handlers, which live on the mixins
#: rather than :class:`EngineBase`, resolve through the instance at call
#: time.
_EVENT_DISPATCH: Dict[type, str] = {
    EV.Deliver: "_ev_deliver",
    EV.TimerFired: "_ev_timer_fired",
    EV.AppSend: "_ev_app_send",
    EV.LocalStep: "_ev_local_step",
    EV.AppOp: "_ev_app_op",
    EV.InitiateCheckpoint: "_ev_initiate_checkpoint",
    EV.InitiateRollback: "_ev_initiate_rollback",
    EV.Start: "_ev_start",
    EV.Fail: "_ev_fail",
    EV.Recover: "_ev_recover",
    EV.FailureNotice: "_ev_failure_notice",
    EV.RecoveryNotice: "_ev_recovery_notice",
    EV.Join: "_ev_join",
    EV.Leave: "_ev_leave",
}

_CONTROL_DISPATCH: Dict[type, str] = {
    M.ChkptReq: "_on_chkpt_req",
    M.ChkptAck: "_on_chkpt_ack",
    M.ReadyToCommit: "_on_ready_to_commit",
    M.Commit: "_on_commit",
    M.Abort: "_on_abort",
    M.RollReq: "_on_roll_req",
    M.RollAck: "_on_roll_ack",
    M.RollComplete: "_on_roll_complete",
    M.Restart: "_on_restart",
    M.DecisionInquiry: "_on_decision_inquiry",
    M.DecisionReply: "_on_decision_reply",
    M.HandoffMsg: "_on_handoff",
}


#: Rule-1 proactive notices are scheduled (not called inline) so the current
#: procedure finishes first; the historical scheduler default they used.
RULE1_PRIORITY = PRIORITY_NORMAL


class ProtocolEngine(
    ChkptProtocolMixin, RollProtocolMixin, RecoveryMixin, MembershipMixin, EngineBase
):
    """The full Leu-Bhargava daemon as a pure state machine."""


__all__ = [
    "EngineBase",
    "ProtocolConfig",
    "ProtocolEngine",
    "RULE1_PRIORITY",
]
