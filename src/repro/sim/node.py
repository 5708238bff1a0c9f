"""Base class for protocol processes (actors).

A :class:`Node` is a reactive object owned by a kernel — either the
discrete-event :class:`repro.sim.simulation.Simulation` or the live
:class:`repro.runtime.loop.AsyncRuntime` (both implement
:class:`repro.kernel.KernelLike`).  Either way at most one callback of one
node runs at a time, which gives us the paper's "the execution of any
procedure is exclusive" for free.

Nodes interact with the world only through the hooks here:

* :meth:`send` — hand an envelope to the network;
* :meth:`set_timer` / :meth:`cancel_timer` — named, cancellable timers;
* :meth:`on_envelope` — called by the network on delivery;
* :meth:`on_crash` / :meth:`on_recover` — failure-injection hooks;
* :meth:`on_failure_notice` — failure-detector notification about a peer.

Crashed nodes receive nothing: the network drops or spools their messages and
the simulation suppresses their timers until recovery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.errors import SimulationError
from repro.priorities import PRIORITY_TIMER
from repro.types import ProcessId, SimTime

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.kernel import KernelLike
    from repro.net.message import Envelope
    from repro.sim.scheduler import Timer


class Node:
    """A protocol process; subclass and override the ``on_*`` hooks."""

    def __init__(self, node_id: ProcessId):
        self.node_id = node_id
        self.crashed = False
        self._sim: Optional["KernelLike"] = None
        self._timers: Dict[str, "Timer"] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(self, sim: "KernelLike") -> None:
        """Attach this node to a kernel.  Called by ``KernelCore.add_node``."""
        if self._sim is not None:
            raise SimulationError(f"node {self.node_id} already bound")
        self._sim = sim

    @property
    def sim(self) -> "KernelLike":
        """The owning kernel (raises if the node is unbound).

        Named ``sim`` for historical reasons; under the live runtime this is
        an :class:`repro.runtime.loop.AsyncRuntime`.
        """
        if self._sim is None:
            raise SimulationError(f"node {self.node_id} is not bound to a kernel")
        return self._sim

    @property
    def now(self) -> SimTime:
        """Current kernel time."""
        return self.sim.now

    # ------------------------------------------------------------------
    # Outbound actions
    # ------------------------------------------------------------------
    def send(self, envelope: "Envelope") -> None:
        """Hand an envelope to the network for (eventual) delivery."""
        # ``_sim``, not the checking ``sim``: a node that sends is bound.
        self._sim.network.transmit(envelope)

    def set_timer(
        self,
        name: str,
        delay: SimTime,
        action: Callable[[], None],
        replace: bool = True,
        priority: int = PRIORITY_TIMER,
    ) -> None:
        """Schedule ``action`` after ``delay``; timers are named and cancellable.

        With ``replace=True`` (default) an existing pending timer of the same
        name is cancelled first — the common "reset the checkpoint timer"
        idiom from the paper.  ``priority`` orders same-instant firings
        against other kernel events (defaults to timer priority, i.e. last).
        """
        existing = self._timers.get(name)
        if existing is not None and not existing.cancelled:
            if not replace:
                raise SimulationError(f"timer {name!r} already pending on node {self.node_id}")
            existing.cancel()

        def fire() -> None:
            self._timers.pop(name, None)
            if not self.crashed:
                action()

        self._timers[name] = self._sim.scheduler.after(
            delay, fire, priority=priority, label=f"P{self.node_id}.{name}"
        )

    def cancel_timer(self, name: str) -> None:
        """Cancel the named timer if pending; no-op otherwise."""
        event = self._timers.pop(name, None)
        if event is not None:
            event.cancel()

    def cancel_all_timers(self) -> None:
        """Cancel every pending timer (used on crash)."""
        for event in self._timers.values():
            event.cancel()
        self._timers.clear()

    # ------------------------------------------------------------------
    # Inbound hooks (override in subclasses)
    # ------------------------------------------------------------------
    def on_envelope(self, envelope: "Envelope") -> None:
        """Called by the network when a message is delivered to this node."""

    def on_start(self) -> None:
        """Called once when the simulation starts."""

    def on_crash(self) -> None:
        """Called when the failure injector crashes this node."""

    def on_recover(self) -> None:
        """Called when this node restarts after a crash.

        Volatile state must be reconstructed from the node's stable storage,
        per the paper's failure model.
        """

    def on_failure_notice(self, pid: ProcessId) -> None:
        """Failure detector reports that process ``pid`` has crashed."""

    def on_recovery_notice(self, pid: ProcessId) -> None:
        """Failure detector reports that process ``pid`` is operational again."""

    # -- dynamic membership (repro.membership) -------------------------
    def on_join_peer(self, pid: ProcessId) -> None:
        """The membership plane reports that process ``pid`` joined."""

    def on_leave_peer(self, pid: ProcessId, successor: Optional[ProcessId]) -> None:
        """The membership plane reports that ``pid`` gracefully departed."""

    def on_leave(self, successor: Optional[ProcessId], spooled: tuple = ()) -> None:
        """This node itself is departing; hand obligations to ``successor``.

        ``spooled`` carries ``(src, label)`` summaries of the dead letters
        drained from this node's spooler group.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self.crashed else "up"
        return f"<{type(self).__name__} P{self.node_id} {state}>"
