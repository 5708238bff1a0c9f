"""Barigazzi-Strigini application-transparent recovery points [1] (baseline).

Distinguishing features reproduced from the paper's Section 5 summary:

* "The sending and receiving of a message is atomic, which is more
  restrictive than FIFO channels.  Under this constraint, sending a message
  will block the operations of the sender until the message is received."
  — modelled as *synchronous sends*: after transmitting a normal message
  the sender suspends further normal sends until the receiver's delivery
  acknowledgement returns; queued sends drain one at a time.
* "A process after making an uncommitted checkpoint can resume its normal
  operations only after the checkpoint is committed or aborted." —
  modelled by suspending sends *and* receives while a tentative checkpoint
  is pending (the strongest blocking in the comparison).
* Interfering instances are merged rather than rejected: overlapping trees
  elect "a new coordinator ... from among the roots of the overlapping
  trees".  We approximate the merge with the Leu-Bhargava shared-checkpoint
  machinery (a process in two instances shares its tentative checkpoint and
  either root's decision commits it), which gives merge-equivalent outcomes
  with the same message pattern; the measured difference against
  Leu-Bhargava is therefore isolated to the *blocking* axes, per DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro import tracekinds as T
from repro.baselines.base import BaselineProcess
from repro.core import messages as M
from repro.core.engine import ProtocolEngine
from repro.net.message import Envelope, control, normal
from repro.priorities import PRIORITY_NORMAL
from repro.types import MessageId, ProcessId, TreeId


@dataclass(frozen=True)
class DeliveryAck:
    """Receiver's acknowledgement completing one atomic send."""

    msg_id: MessageId
    kind = "delivery_ack"
    priority = PRIORITY_NORMAL


class BarigazziStriginiEngine(ProtocolEngine):
    """Atomic (blocking) sends + fully blocking tentative checkpoints."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._awaiting_ack: Optional[MessageId] = None
        self._send_window: List[Tuple[ProcessId, Any]] = []

    # ------------------------------------------------------------------
    # Atomic sends: one message in flight at a time
    # ------------------------------------------------------------------
    def send_app_message(self, dst: ProcessId, payload: Any) -> None:
        if self.crashed:
            return
        self._send_window.append((dst, payload))
        self._drain_send_window()

    def _drain_send_window(self) -> None:
        if self._awaiting_ack is not None or not self._send_window:
            return
        if not self.can_send_normal:
            return
        dst, payload = self._send_window.pop(0)
        msg_id = self._new_msg_id()
        label = self.ledger.record_send(msg_id, dst)
        self._trace(T.K_SEND, msg_id=msg_id, dst=dst, label=label, payload=payload)
        self._awaiting_ack = msg_id
        self._trace(T.K_SUSPEND_SEND)
        self.host.send(normal(self.node_id, dst, msg_id, label, M.NormalBody(payload=payload)))

    def _on_delivery_ack(self, src: ProcessId, ack: DeliveryAck) -> None:
        if self._awaiting_ack == ack.msg_id:
            self._awaiting_ack = None
            self._trace(T.K_RESUME_SEND)
            self._drain_send_window()

    def _on_normal(self, envelope: Envelope) -> None:
        # Acknowledge delivery first (completing the sender's atomic send),
        # then consume normally.  Discarded messages are acked too: the
        # atomic send completes even if the receive is suppressed.
        self.host.send(control(self.node_id, envelope.src, DeliveryAck(msg_id=envelope.msg_id)))
        super()._on_normal(envelope)

    def _flush_output_queue(self) -> None:
        # The output queue is bypassed (the send window serialises sends);
        # resume events only need to restart the window drain.
        self._drain_send_window()

    # ------------------------------------------------------------------
    # Fully blocking tentative checkpoints
    # ------------------------------------------------------------------
    def _make_new_checkpoint(self, tree_id: TreeId) -> None:
        super()._make_new_checkpoint(tree_id)
        # Beyond the base algorithm's send suspension: receives block too.
        self._suspend_comm()

    def _commit_checkpoint(self, tree_id: TreeId) -> None:
        super()._commit_checkpoint(tree_id)
        if not self.roll_restart_set:
            self._resume_comm()

    def _abort_instance(self, tree_id: TreeId) -> None:
        had_newchkpt = self.store.newchkpt is not None
        super()._abort_instance(tree_id)
        if had_newchkpt and self.store.newchkpt is None and not self.roll_restart_set:
            self._resume_comm()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch_control(self, src: ProcessId, body) -> None:
        if isinstance(body, DeliveryAck):
            self._on_delivery_ack(src, body)
            return
        super()._dispatch_control(src, body)


class BarigazziStriginiProcess(BaselineProcess):
    """Adapter driving :class:`BarigazziStriginiEngine`."""

    algorithm_name = "barigazzi-strigini"
    engine_class = BarigazziStriginiEngine
