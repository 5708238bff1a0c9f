"""The runtime-agnostic kernel contract shared by simulator and live runtime.

Protocol code in :mod:`repro.core`, :mod:`repro.failure` and
:mod:`repro.baselines` never talks to the event loop directly — it goes
through the object bound as ``node.sim``.  Historically that object was
always :class:`repro.sim.simulation.Simulation`; this module names the
actual contract so the *same* protocol classes run under the discrete-event
simulator and under :class:`repro.runtime.loop.AsyncRuntime` (real timers,
real sockets) without a single ``if sim:`` branch.

The contract has two parts:

* :class:`KernelLike` — what protocol/failure code reads off ``node.sim``:
  the clock, the scheduler, the trace, the network facade, named RNG
  streams, the failure-detector slot, and liveness queries.
* :class:`KernelCore` — the shared concrete half: node registry, liveness,
  and the crash/recover transitions (which must behave identically in both
  worlds, down to the trace records and failure-detector reports).

The scheduler has no contract of its own to state: both kernels' schedulers
*are* :class:`repro.sim.scheduler.TimerHeap` — one ``(time, priority, seq)``
heap, one :class:`~repro.sim.scheduler.Timer`, one ``at``/``after``/
``pending`` and one cancel accounting — and a kernel adds a clock to it.
What differs between the two clocks is the whole of each subclass:

=====================  ========================  ==========================
                       ``sim.Scheduler``         ``runtime.AsyncScheduler``
=====================  ========================  ==========================
``now``                the firing timer's time   ``loop.time()`` rescaled,
                                                 frozen while detached
``at`` in the past     raises                    fires at once
who pops the heap      ``run``/``step``; an      one ``call_at`` ``_pump``
                       error propagates          draining every due entry;
                                                 errors land in ``errors``
=====================  ========================  ==========================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Protocol, runtime_checkable

from repro import tracekinds as T
from repro.errors import SimulationError
from repro.membership import MembershipPlane
from repro.types import ProcessId, SimTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network
    from repro.sim.node import Node
    from repro.sim.rng import Rng
    from repro.sim.scheduler import TimerHeap
    from repro.sim.trace import Trace


@runtime_checkable
class KernelLike(Protocol):
    """What a bound protocol node may ask of its substrate (``node.sim``)."""

    scheduler: "TimerHeap"
    trace: "Trace"
    network: "Network"
    rng: "Rng"
    failure_detector: Optional[Any]
    nodes: Dict[ProcessId, "Node"]

    @property
    def now(self) -> SimTime: ...

    @property
    def process_ids(self) -> List[ProcessId]: ...

    def is_member(self, pid: ProcessId) -> bool: ...

    def is_alive(self, pid: ProcessId) -> bool: ...

    def crash(self, pid: ProcessId) -> None: ...

    def recover(self, pid: ProcessId) -> None: ...


class KernelCore:
    """Node registry, liveness and failure transitions shared by kernels.

    Subclasses (:class:`~repro.sim.simulation.Simulation`,
    :class:`~repro.runtime.loop.AsyncRuntime`) must provide ``scheduler``,
    ``trace``, ``network`` and ``rng`` (``now`` is the scheduler's); everything here
    is kernel-agnostic and — crucially — byte-identical between the two, so
    crash/recovery semantics cannot drift between simulation and deployment.
    """

    scheduler: "TimerHeap"
    trace: "Trace"

    def __init__(self) -> None:
        self.nodes: Dict[ProcessId, "Node"] = {}
        self.failure_detector: Optional[Any] = None
        self.membership = MembershipPlane()
        #: Bumped by :meth:`liveness_changed` at every transition that can
        #: alter ``is_alive``, ``process_ids`` or the detector's beliefs;
        #: views derived from them are rebuilt only when it has moved.
        self.liveness_generation = 0
        self._process_ids: List[ProcessId] = []
        self._process_ids_generation = 0

    # ------------------------------------------------------------------
    # Liveness generation
    # ------------------------------------------------------------------
    def liveness_changed(self) -> None:
        """Invalidate every view cached under the liveness generation."""
        self.liveness_generation += 1

    def set_crashed(self, node: "Node", crashed: bool) -> None:
        """The one place a hosted node's ``crashed`` flag is written.

        Silent (no trace record, no detector report): crash, recovery,
        departure and partition dormancy each wrap it in their own protocol.
        """
        node.crashed = crashed
        self.liveness_changed()

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_node(self, node: "Node") -> "Node":
        """Register ``node``; ids must be unique."""
        if node.node_id in self.nodes:
            raise SimulationError(f"duplicate node id {node.node_id}")
        node.bind(self)
        self.nodes[node.node_id] = node
        self.liveness_changed()
        self.membership.seed(node.node_id)
        return node

    def join_node(self, node: "Node") -> "Node":
        """Admit ``node`` into a *running* system (graceful join).

        The membership-plane sequence is identical in both kernels: the pid
        enters the view pending, the node is registered and started, the
        join commits (bumping the view epoch and notifying the plane's one
        subscriber, the failure detector), and finally every other live node
        hears ``on_join_peer``.  The joiner itself learns the world through
        its ordinary ``on_start``.
        """
        pid = node.node_id
        self.membership.begin_join(pid)
        node.bind(self)
        self.nodes[pid] = node
        self.liveness_changed()
        self.trace.record(self.now, T.K_JOIN, pid=pid, epoch=self.membership.view.epoch + 1)
        node.on_start()
        self.membership.complete_join(pid)
        for peer in self.operational_nodes(but=pid):
            peer.on_join_peer(pid)
        return node

    def leave_node(self, pid: ProcessId, successor: Optional[ProcessId] = None) -> None:
        """Gracefully retire ``pid`` from a running system.

        Unlike :meth:`crash`, departure is cooperative: the node's spooler
        group is drained (dead letters travel as ``(src, label)`` summaries
        in the handoff), the node resolves its protocol obligations via
        ``on_leave`` (which may transmit a handoff to ``successor``), and
        only then is it removed and the view change published.
        """
        node = self.nodes.get(pid)
        if node is None:
            raise SimulationError(f"P{pid} is not a member")
        if node.crashed:
            raise SimulationError(f"P{pid} is crashed; use recover() first")
        if successor is not None and not self.is_alive(successor):
            raise SimulationError(f"successor P{successor} is not alive")
        self.membership.begin_leave(pid)
        group = self.network.spooler_for(pid)  # type: ignore[attr-defined]
        spooled: tuple = ()
        if group is not None:
            spooled = tuple(
                (env.src, env.label) for env in group.drain(self.is_alive)
            )
        self.trace.record(
            self.now, T.K_LEAVE, pid=pid,
            epoch=self.membership.view.epoch + 1, successor=successor,
        )
        node.on_leave(successor, spooled)
        node.cancel_all_timers()
        del self.nodes[pid]  # first, so set_crashed's one bump covers both changes
        self.set_crashed(node, True)  # nothing may run on it past this point
        self.membership.complete_leave(pid)
        if self.failure_detector is not None:
            self.failure_detector.forget(pid)
        for peer in self.operational_nodes():
            peer.on_leave_peer(pid, successor)

    def node(self, pid: ProcessId) -> "Node":
        return self.nodes[pid]

    @property
    def process_ids(self) -> List[ProcessId]:
        if self._process_ids_generation != self.liveness_generation:
            self._process_ids = sorted(self.nodes)
            self._process_ids_generation = self.liveness_generation
        return list(self._process_ids)

    def is_member(self, pid: ProcessId) -> bool:
        """True if ``pid`` is a valid destination: hosted here, up or down.

        What the live network facade asks before handing an envelope to its
        transport; a shard kernel answers for the whole cluster instead.
        """
        return pid in self.nodes

    def is_alive(self, pid: ProcessId) -> bool:
        """True if ``pid`` exists and is not crashed."""
        node = self.nodes.get(pid)
        return node is not None and not node.crashed

    def alive_processes(self) -> List[ProcessId]:
        return [pid for pid in self.process_ids if self.is_alive(pid)]

    def operational_nodes(self, but: Optional[ProcessId] = None) -> Iterator["Node"]:
        """The nodes this kernel *hosts* that are up, in pid order, ``but``
        excluded — whom a notice (failure, recovery, join, leave) is told to.

        Hosted nodes, not ``process_ids``: a shard kernel answers for the
        whole cluster but hosts (and notifies) only its slice.  Lazy, so a
        node that a notice takes down is not told the next one.
        """
        for pid in sorted(self.nodes):
            node = self.nodes[pid]
            if pid != but and not node.crashed:
                yield node

    # ------------------------------------------------------------------
    # Time (subclasses own the scheduler)
    # ------------------------------------------------------------------
    @property
    def now(self) -> SimTime:
        return self.scheduler.now

    # ------------------------------------------------------------------
    # Failures
    # ------------------------------------------------------------------
    def crash(self, pid: ProcessId) -> None:
        """Crash ``pid``: clean fail-stop, volatile state and timers lost."""
        node = self.nodes[pid]
        if node.crashed:
            raise SimulationError(f"P{pid} is already crashed")
        self.set_crashed(node, True)
        node.cancel_all_timers()
        self.trace.record(self.now, T.K_CRASH, pid=pid)
        node.on_crash()
        if self.failure_detector is not None:
            self.failure_detector.report_crash(pid)

    def recover(self, pid: ProcessId) -> None:
        """Restart ``pid`` from its stable storage."""
        node = self.nodes[pid]
        if not node.crashed:
            raise SimulationError(f"P{pid} is not crashed")
        self.set_crashed(node, False)
        self.trace.record(self.now, T.K_RECOVER, pid=pid)
        node.on_recover()
        if self.failure_detector is not None:
            self.failure_detector.report_recovery(pid)
