"""`CheckpointProcess` — a kernel-bound adapter around the sans-IO engine.

The protocol itself lives in :class:`repro.core.engine.ProtocolEngine`; this
class is the thin glue that lets a kernel (the discrete-event simulation via
:class:`repro.sim.node.Node`, or the live asyncio runtime through the same
``Node`` interface) drive that engine:

* it *is* the engine's host port (``engine.host``): ``send`` hands an
  envelope to the kernel's network, ``trace`` stamps the kernel time and this
  pid on a trace record;
* the five per-message kernel callbacks (``on_envelope``, a timer firing,
  ``send_app_message``, ``local_step``, ``app_op``) stamp the kernel time and
  the status monitor's view on the engine and call the engine method that
  does the work;
* the rest (``on_start``, initiations, crash/recover, failure notices,
  membership) are translated into typed :mod:`repro.core.events` and fed to
  ``engine.handle``;
* the engine's typed :mod:`repro.core.effects` are interpreted eagerly, the
  moment each is emitted, against the kernel: timers go to the node's timer
  table (with the RNG jitter drawn from the kernel's seeded stream),
  decisions and redeliveries to the network's spoolers.

The engine owns all protocol state, including the checkpoint store and the
stable storage it writes through (``storage=`` is handed straight to the
engine).  Attribute *reads* that miss on the adapter fall through to the
engine, so tests and analysis code can keep reading ``proc.ledger`` /
``proc.store`` / ``proc.storage`` / ``proc.chkpt_commit_set``; writes do not —
set protocol state or patch engine hooks on ``proc.engine``.  The adapter
keeps only the kernel-facing state: the node timer table and the ``crashed``
flag the kernel toggles.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro import tracekinds as T
from repro.core import effects as FX
from repro.core import events as EV
from repro.core import messages as M
from repro.core.app import Application
from repro.core.engine import ProtocolConfig, ProtocolEngine  # noqa: F401  (re-export)
from repro.errors import ProtocolError
from repro.net.message import Envelope, control
from repro.sim.node import Node
from repro.stable.storage import StableStorage
from repro.types import ProcessId, TreeId


class CheckpointProcess(Node):
    """One process ``P_i`` plus its checkpoint/rollback daemon."""

    #: Engine variant this adapter drives; subclasses override.
    engine_class = ProtocolEngine

    def __init__(
        self,
        pid: ProcessId,
        config: Optional[ProtocolConfig] = None,
        app: Optional[Application] = None,
        storage: Optional[StableStorage] = None,
    ) -> None:
        super().__init__(pid)
        self.engine = self.engine_class(pid, config=config, app=app, storage=storage)
        self.engine.host = self
        self.engine._sink = self._apply_effect

    # ------------------------------------------------------------------
    # Read-only view: the engine owns the protocol state
    # ------------------------------------------------------------------
    def __getattr__(self, name: str) -> Any:
        engine = object.__getattribute__(self, "__dict__").get("engine")
        if engine is not None:
            try:
                return getattr(engine, name)
            except AttributeError:
                pass
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    # ------------------------------------------------------------------
    # The engine's host port (``send`` is :meth:`Node.send`)
    # ------------------------------------------------------------------
    # Here and in the per-message inputs below the kernel is read as
    # ``self._sim`` and its clock as ``scheduler.now``: a node the kernel
    # calls is bound, and the checking ``sim`` / ``now`` properties cost two
    # to four calls per message.
    def trace(self, kind: str, fields: Dict[str, Any]) -> None:
        sim = self._sim
        sim.trace.record(sim.scheduler.now, kind, self.node_id, **fields)

    # ------------------------------------------------------------------
    # Kernel callbacks -> engine inputs
    # ------------------------------------------------------------------
    def _detector_views(self) -> Tuple[Optional[frozenset], Optional[Tuple[ProcessId, ...]]]:
        """The status monitor's view, as stamped on engine events.

        Environment views ride on events but are built once per liveness
        generation: the detector hands out the same pair until then.
        """
        detector = self._sim.failure_detector
        if detector is None:
            return None, None
        return detector.views()

    def on_start(self) -> None:
        self.engine.handle(EV.Start(peers=tuple(self.sim.process_ids), at=self.now))

    def on_envelope(self, envelope: Envelope) -> None:
        if self.crashed:
            return
        self.engine.stamp(self._sim.scheduler.now, *self._detector_views())
        self.engine.on_envelope(envelope)

    def _timer_fired(self, name: str) -> None:
        self.engine.stamp(self._sim.scheduler.now, *self._detector_views())
        self.engine._on_timer_fired(name)

    def initiate_checkpoint(self) -> Optional[TreeId]:
        """Condition b1: autonomously start a checkpointing instance."""
        down, status_down = self._detector_views()
        self.engine.handle(
            EV.InitiateCheckpoint(at=self.now, down=down, status_down=status_down)
        )
        return self.engine.last_result

    def initiate_rollback(self) -> Optional[TreeId]:
        """Condition b5: a transient error was detected; roll back."""
        down, status_down = self._detector_views()
        self.engine.handle(
            EV.InitiateRollback(at=self.now, down=down, status_down=status_down)
        )
        return self.engine.last_result

    def send_app_message(self, dst: ProcessId, payload: Any) -> None:
        self.engine.stamp(self._sim.scheduler.now)
        self.engine.send_app_message(dst, payload)

    def local_step(self) -> None:
        self.engine.stamp(self._sim.scheduler.now)
        self.engine.local_step()

    def app_op(self, op: Any) -> None:
        """Apply a tracked application-state mutation (see ``repro.app``)."""
        self.engine.stamp(self._sim.scheduler.now)
        self.engine.apply_app_op(op)

    def on_crash(self) -> None:
        self.engine.handle(EV.Fail(at=self.now))

    def on_recover(self) -> None:
        group = self.sim.network.spooler_for(self.node_id)
        if group is None:
            spooled = None
            spool_decisions = None
        else:
            spooled = tuple(group.drain(self.sim.is_alive))
            seen = group.decisions_seen(self.sim.is_alive)
            spool_decisions = None if seen is None else tuple(seen)
        down, status_down = self._detector_views()
        self.engine.handle(
            EV.Recover(
                at=self.now,
                down=down,
                status_down=status_down,
                spooled=spooled,
                spool_decisions=spool_decisions,
            )
        )

    def on_failure_notice(self, pid: ProcessId) -> None:
        down, status_down = self._detector_views()
        self.engine.handle(
            EV.FailureNotice(pid=pid, at=self.now, down=down, status_down=status_down)
        )

    def on_recovery_notice(self, pid: ProcessId) -> None:
        self.engine.handle(EV.RecoveryNotice(pid=pid, at=self.now))

    # -- dynamic membership (repro.membership) -------------------------
    def on_join_peer(self, pid: ProcessId) -> None:
        self.engine.handle(
            EV.Join(pid=pid, peers=tuple(self.sim.process_ids), at=self.now)
        )

    def on_leave_peer(self, pid: ProcessId, successor: Optional[ProcessId]) -> None:
        self.engine.handle(EV.Leave(pid=pid, successor=successor, at=self.now))

    def on_leave(self, successor: Optional[ProcessId], spooled: tuple = ()) -> None:
        self.engine.handle(
            EV.Leave(
                pid=self.node_id,
                successor=successor,
                spooled=tuple(spooled),
                at=self.now,
            )
        )

    # ------------------------------------------------------------------
    # Engine effects -> kernel actions
    # ------------------------------------------------------------------
    def _apply_effect(self, eff: FX.Effect) -> None:
        handler = _EFFECT_DISPATCH.get(eff.__class__)
        if handler is None:
            raise ProtocolError(f"unknown engine effect {eff!r}")
        handler(self, eff)

    # Per-effect interpreters bound through _EFFECT_DISPATCH (the engine
    # that emits an effect belongs to a bound node: ``_sim`` as above).
    def _fx_set_timer(self, eff: FX.SetTimer) -> None:
        delay = eff.delay
        if eff.jitter is not None:
            stream, lo, hi = eff.jitter
            delay += self._sim.rng.stream(stream, self.node_id).uniform(lo, hi)
        self.set_timer(
            eff.name,
            delay,
            lambda name=eff.name: self._timer_fired(name),
            priority=eff.priority,
        )

    def _fx_cancel_timer(self, eff: FX.CancelTimer) -> None:
        self.cancel_timer(eff.name)

    def _fx_observe_decision(self, eff: FX.ObserveDecision) -> None:
        self._sim.network.observe_decision((eff.kind, eff.tree))

    def _fx_redeliver(self, eff: FX.Redeliver) -> None:
        self._sim.network.redeliver(eff.envelope)

    def _fx_broadcast(self, eff: FX.Broadcast) -> None:
        body = eff.body
        for pid in self.sim.process_ids:
            if pid != self.node_id and self.sim.is_alive(pid):
                self.sim.trace.record(
                    self.now, T.K_CTRL_SEND, pid=self.node_id,
                    dst=pid, msg_type=body.kind, tree=getattr(body, "tree", None),
                )
                self.send(control(self.node_id, pid, body))

    def _fx_handoff(self, eff: FX.Handoff) -> None:
        self.sim.trace.record(
            self.now, T.K_CTRL_SEND, pid=self.node_id,
            dst=eff.successor, msg_type="handoff", tree=None,
        )
        self.send(
            control(
                self.node_id,
                eff.successor,
                M.HandoffMsg(
                    source=eff.source,
                    commit_set=eff.commit_set,
                    decisions=eff.decisions,
                    uncommitted_seq=eff.uncommitted_seq,
                    spooled=eff.spooled,
                ),
            )
        )


#: Exact-class → interpreter table for the six effects: one dict probe per
#: effect, whichever it is.  Plain functions (not names): the adapter's
#: subclasses reuse these interpreters, they do not override them.
_EFFECT_DISPATCH: Dict[type, Callable[[CheckpointProcess, Any], None]] = {
    FX.SetTimer: CheckpointProcess._fx_set_timer,
    FX.CancelTimer: CheckpointProcess._fx_cancel_timer,
    FX.ObserveDecision: CheckpointProcess._fx_observe_decision,
    FX.Redeliver: CheckpointProcess._fx_redeliver,
    FX.Broadcast: CheckpointProcess._fx_broadcast,
    FX.Handoff: CheckpointProcess._fx_handoff,
}
