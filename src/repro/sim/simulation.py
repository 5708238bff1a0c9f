"""The :class:`Simulation` facade: scheduler + network + trace + nodes.

This is the object users construct first.  A typical setup::

    sim = Simulation(seed=42, delay_model=ExponentialDelay(mean=1.0))
    procs = [CheckpointProcess(i, config) for i in range(4)]
    for p in procs:
        sim.add_node(p)
    sim.run(until=500.0)

Crash/recovery is driven through :meth:`crash` and :meth:`recover` (usually
via :class:`repro.failure.injector.FailureInjector`); the simulation notifies
the registered failure detector, which in turn notifies surviving nodes after
its detection latency.

``Simulation`` is one of two kernels implementing the
:class:`repro.kernel.KernelLike` contract — the other is the live
:class:`repro.runtime.loop.AsyncRuntime`.  The topology, liveness and
crash/recovery mechanics live in the shared :class:`repro.kernel.KernelCore`
base; this class adds only what is simulation-specific: virtual time and the
deterministic discrete-event loop.  Dynamic membership has no aliases here
either: admit a node with :meth:`~repro.kernel.KernelCore.add_node` before
:meth:`run`, or :meth:`~repro.kernel.KernelCore.join_node` /
:meth:`~repro.kernel.KernelCore.leave_node` on a running simulation — the
kernel-level spelling every kernel shares (clusters spell the level above
``kill``/``restart``/``join``/``leave``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.kernel import KernelCore
from repro.net.network import Network
from repro.sim.rng import Rng
from repro.sim.scheduler import Scheduler
from repro.sim.trace import Trace
from repro.types import SimTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.channel import Channel
    from repro.net.delay import DelayModel
    from repro.sim.trace import TraceSink


class Simulation(KernelCore):
    """One self-contained simulated distributed system."""

    def __init__(
        self,
        seed: int = 0,
        delay_model: Optional["DelayModel"] = None,
        channel: Optional["Channel"] = None,
        sinks: Optional[List["TraceSink"]] = None,
    ):
        super().__init__()
        self.rng = Rng(seed)
        self.scheduler = Scheduler()
        self.trace = Trace(sinks=sinks)
        self.network = Network(delay_model=delay_model, channel=channel)
        self.network.bind(self)
        self._started = False

    def run(self, until: Optional[SimTime] = None, max_events: Optional[int] = None) -> SimTime:
        """Start (if needed) and run the event loop; see ``Scheduler.run``."""
        if not self._started:
            self._started = True
            for pid in self.process_ids:
                self.nodes[pid].on_start()
        return self.scheduler.run(until=until, max_events=max_events)
