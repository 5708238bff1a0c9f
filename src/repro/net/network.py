"""The simulated network: routing, partitions, crash filtering, spooling.

The :class:`Network` sits between nodes and the scheduler.  On
:meth:`transmit` it samples a transit delay, applies the channel ordering
policy, and schedules delivery.  At delivery time it re-checks the world:

* destination crashed → the envelope is redirected to the destination's
  spoolers (if configured) or dropped;
* source and destination in different partitions → dropped (an end-to-end
  transport cannot cross a partition; the protocols' partition handling
  takes over);
* otherwise → delivered via ``node.on_envelope``.

The network also owns the global message counters used by the Section 5
comparison benchmarks (normal/control messages sent, drops, spools).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set

from repro import tracekinds as T
from repro.errors import NetworkError
from repro.net.channel import Channel, NonFifoChannel
from repro.net.delay import DelayModel, UniformDelay
from repro.net.message import CONTROL, Envelope
from repro.net.spooler import SpoolerGroup
from repro.priorities import PRIORITY_NORMAL
from repro.types import ProcessId

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel import KernelLike


class Network:
    """Routes envelopes between the nodes of one kernel.

    Bound to any :class:`repro.kernel.KernelLike` substrate — historically a
    :class:`~repro.sim.simulation.Simulation` (the attribute is still called
    ``sim``), but the live runtime's
    :class:`repro.runtime.network.RuntimeNetwork` subclasses this and reuses
    everything except :meth:`transmit` (partition policy, spooler registry,
    crash filtering, counters, and the delivery-time bookkeeping).
    """

    def __init__(
        self,
        delay_model: Optional[DelayModel] = None,
        channel: Optional[Channel] = None,
    ):
        self.delay_model: DelayModel = delay_model or UniformDelay()
        self.channel: Channel = channel or NonFifoChannel()
        self._sim: Optional["KernelLike"] = None
        self._partition: Optional[List[FrozenSet[ProcessId]]] = None
        self._spoolers: Dict[ProcessId, SpoolerGroup] = {}
        # Counters for the comparison benchmarks.
        self.normal_sent = 0
        self.control_sent = 0
        self.delivered = 0
        self.dropped = 0
        self.spooled = 0
        # Envelopes addressed to a gracefully-departed pid that were
        # salvaged (spooled or counted-and-dropped) instead of raising.
        self.salvaged_departed = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(self, sim: "KernelLike") -> None:
        if self._sim is not None:
            raise NetworkError("network already bound to a kernel")
        self._sim = sim

    @property
    def sim(self) -> "KernelLike":
        if self._sim is None:
            raise NetworkError("network not bound to a kernel")
        return self._sim

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def partition(self, groups: List[Set[ProcessId]]) -> None:
        """Split the network into ``groups``; cross-group traffic is dropped.

        Every process must appear in exactly one group.
        """
        flattened = [pid for group in groups for pid in group]
        if len(flattened) != len(set(flattened)):
            raise NetworkError("partition groups overlap")
        missing = set(self.sim.nodes) - set(flattened)
        if missing:
            raise NetworkError(f"partition omits processes {sorted(missing)}")
        self._partition = [frozenset(g) for g in groups]
        self.sim.trace.record(self.sim.now, T.K_PARTITION, groups=[sorted(g) for g in groups])

    def merge(self) -> None:
        """Heal all partitions: every process can reach every other again."""
        self._partition = None
        self.sim.trace.record(self.sim.now, T.K_MERGE, groups=[sorted(self.sim.nodes)])

    @property
    def partitioned(self) -> bool:
        return self._partition is not None

    def group_of(self, pid: ProcessId) -> FrozenSet[ProcessId]:
        """The partition group containing ``pid`` (all processes if healed)."""
        if self._partition is None:
            return frozenset(self.sim.nodes)
        for group in self._partition:
            if pid in group:
                return group
        raise NetworkError(f"process {pid} not in any partition group")

    def reachable(self, src: ProcessId, dst: ProcessId) -> bool:
        """True if ``src`` and ``dst`` are currently in the same partition."""
        if self._partition is None:
            return True
        return dst in self.group_of(src)

    # ------------------------------------------------------------------
    # Spoolers
    # ------------------------------------------------------------------
    def install_spoolers(self, owner: ProcessId, hosts: List[ProcessId]) -> SpoolerGroup:
        """Create the replicated spooler group for ``owner`` on ``hosts``."""
        group = SpoolerGroup(owner, hosts)
        self._spoolers[owner] = group
        return group

    def spooler_for(self, owner: ProcessId) -> Optional[SpoolerGroup]:
        return self._spoolers.get(owner)

    def observe_decision(self, decision: object) -> None:
        """Let every spooler group record a broadcast protocol decision.

        Recovery rule 3 needs restarting processes to learn commit/abort and
        restart decisions that were propagated while they were down; spoolers
        are the paper's mechanism for that.
        """
        alive = self._sim.is_alive
        for group in self._spoolers.values():
            group.observe_decision(decision, alive)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _accept(self, envelope: Envelope) -> None:
        """Stamp the send time and bump the sent counters.

        Shared by the simulated :meth:`transmit` and the runtime transports,
        so the Section 5 message-count comparisons mean the same thing in
        both worlds.
        """
        envelope.send_time = self._sim.scheduler.now
        if envelope.category == CONTROL:
            self.control_sent += 1
        else:
            self.normal_sent += 1

    def _is_departed(self, pid: ProcessId) -> bool:
        return self.sim.membership.is_departed(pid)

    def transmit(self, envelope: Envelope) -> None:
        """Accept an envelope from ``envelope.src`` and schedule its delivery."""
        sim = self._sim
        if envelope.dst not in sim.nodes:
            if self._is_departed(envelope.dst):
                # A member left gracefully while this sender still held a
                # stale view; salvage rather than treat as a routing error.
                self._accept(envelope)
                self.salvaged_departed += 1
                self.spool_or_drop(envelope, "departed")
                return
            raise NetworkError(f"unknown destination P{envelope.dst}")
        self._accept(envelope)
        scheduler = sim.scheduler
        delay = self.delay_model.sample(sim.rng, envelope.src, envelope.dst)
        deliver_at = self.channel.delivery_time(
            envelope.src, envelope.dst, scheduler.now, delay
        )
        priority = getattr(envelope.body, "priority", PRIORITY_NORMAL)
        # A C-level ``partial``, not a lambda: no Python frame per delivery.
        scheduler.at(deliver_at, partial(self._deliver, envelope), priority)

    def _deliver(self, envelope: Envelope) -> None:
        sim = self._sim
        envelope.deliver_time = sim.scheduler.now
        dst_node = sim.nodes.get(envelope.dst)
        if dst_node is None:
            # The destination departed while this envelope was in flight.
            self.salvaged_departed += 1
            self.spool_or_drop(envelope, "departed")
            return

        if self._partition is not None and not self.reachable(envelope.src, envelope.dst):
            self.dropped += 1
            sim.trace.record(
                sim.scheduler.now,
                T.K_DISCARD,
                pid=envelope.dst,
                msg_id=envelope.msg_id,
                src=envelope.src,
                label=envelope.label,
                reason="partitioned",
            )
            return

        if dst_node.crashed:
            self.spool_or_drop(envelope, "crashed")
            return

        self.delivered += 1
        dst_node.on_envelope(envelope)

    def spool_or_drop(self, envelope: Envelope, reason: str) -> None:
        """Salvage an undeliverable envelope via spoolers, else drop it.

        Used for deliveries to a crashed destination and by runtime
        transports whose peer endpoint is unreachable — in both cases the
        paper's model says the destination's spooler hosts (if any are alive)
        capture the message for redelivery at recovery.
        """
        sim = self.sim
        spooler = self._spoolers.get(envelope.dst)
        if spooler is not None and spooler.spool(envelope, sim.is_alive):
            self.spooled += 1
        else:
            self.dropped += 1
            sim.trace.record(
                sim.now,
                T.K_DISCARD,
                pid=envelope.dst,
                msg_id=envelope.msg_id,
                src=envelope.src,
                label=envelope.label,
                reason=reason,
            )

    def deliver_local(self, envelope: Envelope) -> None:
        """Hand an envelope that has finished transit to the destination.

        Public entry point for runtime transports: once the wire (or the
        loopback delay timer) has carried the envelope to the destination's
        kernel, this applies the exact same partition/crash/spool policy as
        a simulated delivery.
        """
        self._deliver(envelope)

    def note_transport_drop(self, envelope: Envelope, reason: str) -> None:
        """Record an envelope the transport itself had to drop.

        E.g. the TCP transport cannot connect to a killed peer's socket.  The
        paper's channel model allows arbitrary loss windows around failures;
        we count and trace the drop so live-run analysis sees it.
        """
        sim = self.sim
        self.dropped += 1
        sim.trace.record(
            sim.now,
            T.K_DISCARD,
            pid=envelope.dst,
            msg_id=envelope.msg_id,
            src=envelope.src,
            label=envelope.label,
            reason=reason,
        )

    def redeliver(self, envelope: Envelope) -> None:
        """Deliver a spooled envelope to its (now recovered) destination.

        Bypasses delay sampling: the spool drain is local to the recovering
        process.
        """
        sim = self.sim
        dst_node = sim.nodes[envelope.dst]
        if dst_node.crashed:
            raise NetworkError(f"cannot redeliver to crashed P{envelope.dst}")
        envelope.deliver_time = sim.now
        self.delivered += 1
        dst_node.on_envelope(envelope)
