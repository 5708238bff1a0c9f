"""The live kernel: the paper's protocols on a real asyncio event loop.

:class:`AsyncRuntime` is the second implementation of the
:class:`repro.kernel.KernelLike` contract (the first being the
discrete-event :class:`repro.sim.simulation.Simulation`).  The same
:class:`~repro.sim.node.Node` subclasses — checkpoint/rollback processes,
failure detectors, spoolers, workloads — run unmodified on either; only the
substrate changes:

==================  ===========================  ==========================
contract piece      Simulation                   AsyncRuntime
==================  ===========================  ==========================
clock (``now``)     the firing timer's time      ``loop.time()`` rescaled
heap is popped by   ``run``/``step``             one ``call_at`` ``_pump``
transmit            heap-scheduled delivery      a :class:`~repro.runtime.
                                                 transport.Transport`
serialized exec     single-threaded loop         single-threaded loop
==================  ===========================  ==========================

Timers and same-instant order are not in the table because they are not two
things: both kernels' schedulers are one :class:`~repro.sim.scheduler.
TimerHeap` keyed ``(time, priority, seq)``, under two clocks.

Time scaling: protocol code thinks in the paper's abstract time units
(message delays ~0.5 units, detector latency ~2 units).  ``time_scale`` maps
one protocol unit to that many real seconds, so a scripted scenario spanning
40 units finishes in 2 wall seconds at ``time_scale=0.05``.  ``now`` always
reports protocol units; only the kernel touches real seconds.

Callbacks never propagate exceptions into the loop: they are collected in
:attr:`AsyncScheduler.errors` and re-raised at :meth:`AsyncRuntime.shutdown`,
so a protocol bug fails the run loudly instead of killing one timer quietly.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.kernel import KernelCore
from repro.priorities import PRIORITY_NORMAL
from repro.sim.rng import Rng
from repro.sim.scheduler import Timer, TimerHeap
from repro.sim.trace import Trace
from repro.types import SimTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.delay import DelayModel
    from repro.runtime.transport import Transport
    from repro.sim.trace import TraceSink


class AsyncScheduler(TimerHeap):
    """The timer heap popped against a real asyncio loop's clock.

    ``now`` is ``(loop.time() - epoch) / time_scale``: kernel time 0 is the
    moment the runtime attached to the loop, and time advances continuously
    — there is no "current event's timestamp" as in the virtual-time
    scheduler.  Timers requested before the loop exists (workload installs,
    test setup) queue up and are armed at attach.

    Scheduling "in the past" clamps to *now* instead of raising: with a real
    clock, time may legitimately advance between computing a deadline and
    arming the timer.

    Same-instant determinism: the heap, its ``(when, priority, seq)`` key and
    its :class:`~repro.sim.scheduler.Timer` are the simulator's own, and a
    single ``loop.call_at`` pump drains every due entry in heap order.  Two
    timers armed for the same protocol instant therefore fire in the same
    relative order under both kernels, which is what makes scripted
    scenarios (two sends at t=2.0, say) bit-identical across them.
    """

    def __init__(self, time_scale: float = 0.05) -> None:
        if time_scale <= 0:
            raise SimulationError(f"time_scale must be positive, got {time_scale}")
        super().__init__()
        self.time_scale = time_scale
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._epoch = 0.0
        self._frozen_now: SimTime = 0.0
        self._pump_handle: Optional[asyncio.TimerHandle] = None
        self._armed_when: Optional[SimTime] = None
        self.errors: List[Tuple[str, Exception]] = []

    # ------------------------------------------------------------------
    # Loop lifecycle (driven by AsyncRuntime)
    # ------------------------------------------------------------------
    def attach(self, loop: asyncio.AbstractEventLoop) -> None:
        """Bind to ``loop`` and start pumping the queued timers."""
        if self._loop is not None:
            raise SimulationError("scheduler already attached to a loop")
        self._loop = loop
        self._epoch = loop.time() - self._frozen_now * self.time_scale
        self._rearm_pump()

    def detach(self) -> None:
        """Freeze the clock and release the loop (runtime shutdown)."""
        if self._loop is not None:
            self._frozen_now = self.now
            self._loop = None
        if self._pump_handle is not None:
            self._pump_handle.cancel()
            self._pump_handle = None
            self._armed_when = None

    @property
    def now(self) -> SimTime:
        """Current kernel time in protocol units (frozen while detached)."""
        if self._loop is None:
            return self._frozen_now
        return (self._loop.time() - self._epoch) / self.time_scale

    def at(
        self,
        time: SimTime,
        action: Callable[[], None],
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> Timer:
        """As :meth:`TimerHeap.at`; a ``time`` in the past fires at once."""
        timer = super().at(time, action, priority, label)
        # Re-arm only when this timer beats the armed wakeup: cancelling and
        # re-issuing ``call_at`` per timer is the scheduler's hot-path cost,
        # and a timer at or after the armed deadline will be drained by the
        # existing pump anyway (it drains *every* due entry in heap order).
        if self._loop is not None and (
            self._armed_when is None or time < self._armed_when
        ):
            self._rearm_pump()
        return timer

    # ------------------------------------------------------------------
    # The pump: one call_at wakeup drains all due timers in heap order
    # ------------------------------------------------------------------
    def _rearm_pump(self) -> None:
        assert self._loop is not None
        if self._pump_handle is not None:
            self._pump_handle.cancel()
            self._pump_handle = None
        # Always clear the armed deadline: after the pump drains the heap
        # empty there is no wakeup, and a stale deadline here would make
        # ``at`` skip re-arming for any later timer — which would never fire.
        self._armed_when = None
        head = self._peek()
        if head is not None:
            self._armed_when = head.when
            real_when = self._epoch + head.when * self.time_scale
            self._pump_handle = self._loop.call_at(
                max(real_when, self._loop.time()), self._pump
            )

    def _pump(self) -> None:
        if self._loop is None:  # pragma: no cover - detach races the wakeup
            return
        self._pump_handle = None
        while True:
            head = self._peek()
            if head is None or self._epoch + head.when * self.time_scale > self._loop.time():
                break
            timer = self._pop()
            try:
                timer.action()  # may push new (possibly already-due) timers
            except Exception as exc:  # noqa: BLE001 - kernel boundary
                self._note_error(timer.label, exc)
        self._rearm_pump()

    def _note_error(self, label: str, exc: Exception) -> None:
        self.errors.append((label, exc))


class AsyncRuntime(KernelCore):
    """A live cluster kernel: one asyncio loop hosting N protocol nodes.

    Construction mirrors :class:`~repro.sim.simulation.Simulation` (seed,
    delay model, sinks) plus a :class:`~repro.runtime.transport.
    Transport` that physically carries envelopes — in-process loopback
    timers or length-prefixed TCP frames.  The asyncio loop provides the
    paper's "execution of any procedure is exclusive" exactly as the
    simulator's event loop does: at most one node callback runs at a time.

    Usage (async)::

        runtime = AsyncRuntime(seed=1, transport=LoopbackTransport())
        for pid in range(4):
            runtime.add_node(CheckpointProcess(pid, config))
        await runtime.start()
        await runtime.run_for(40.0)       # protocol time units
        await runtime.shutdown()

    or synchronously via :meth:`run`, which wraps the sequence above in
    ``asyncio.run``.
    """

    def __init__(
        self,
        seed: int = 0,
        transport: Optional["Transport"] = None,
        delay_model: Optional["DelayModel"] = None,
        sinks: Optional[Sequence["TraceSink"]] = None,
        time_scale: float = 0.05,
    ) -> None:
        super().__init__()
        from repro.runtime.network import RuntimeNetwork
        from repro.runtime.transport import LoopbackTransport

        self.rng = Rng(seed)
        self.scheduler = AsyncScheduler(time_scale=time_scale)
        self.trace = Trace(sinks=sinks)
        self.transport: "Transport" = transport or LoopbackTransport()
        self.network = RuntimeNetwork(self.transport, delay_model=delay_model)
        self.network.bind(self)
        self.transport.bind(self)
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Attach to the running loop, start the transport, fire on_start."""
        if self._started:
            raise SimulationError("runtime already started")
        self._started = True
        # Transport first: attaching the scheduler arms queued workload
        # timers, and the very first one may fire (and send) during any
        # later await — endpoints must already exist by then.
        await self.transport.start()
        self.scheduler.attach(asyncio.get_running_loop())
        # Iterate hosted nodes, not process_ids: a sharded kernel reports
        # the whole cluster's pids but only hosts (and starts) its slice.
        for pid in sorted(self.nodes):
            self.nodes[pid].on_start()

    async def run_for(self, duration: SimTime) -> SimTime:
        """Let the cluster run for ``duration`` protocol time units."""
        await asyncio.sleep(duration * self.scheduler.time_scale)
        return self.now

    async def join(self, timeout: SimTime = 60.0) -> SimTime:
        """Wait for quiescence: no armed timers, nothing in flight.

        Only meaningful for workloads whose timers drain (no periodic
        checkpoint timer); ``timeout`` is in protocol units.
        """
        return await self.wait_until(
            lambda: self.scheduler.pending == 0 and self.transport.in_flight == 0,
            timeout=timeout,
            what="quiescence",
        )

    async def wait_until(
        self,
        predicate: Callable[[], bool],
        timeout: SimTime = 60.0,
        what: str = "condition",
    ) -> SimTime:
        """Poll ``predicate`` until true; ``timeout`` is in protocol units.

        The live-cluster analogue of "run the simulation until X happened":
        real runs cannot fast-forward, so tests wait on observable state
        (e.g. every process committed a checkpoint) with a hard deadline.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout * self.scheduler.time_scale
        poll = max(0.001, min(0.05, self.scheduler.time_scale / 4))
        while not predicate():
            if loop.time() > deadline:
                raise SimulationError(f"timed out after {timeout} time units awaiting {what}")
            await asyncio.sleep(poll)
        return self.now

    async def shutdown(self, raise_errors: bool = True) -> None:
        """Freeze the clock, stop the transport, re-raise callback errors.

        The scheduler detaches *first*: the transport's teardown yields to
        the loop, and a timer due in that window would make its node send
        on a stopped transport and be recorded as a spurious callback error.
        """
        self.scheduler.detach()
        await self.transport.stop()
        if raise_errors:
            self.check()

    def check(self) -> None:
        """Raise the first collected callback error, if any."""
        if self.scheduler.errors:
            label, exc = self.scheduler.errors[0]
            raise SimulationError(
                f"{len(self.scheduler.errors)} kernel callback(s) failed; "
                f"first: {label or 'action'}: {exc!r}"
            ) from exc

    # ------------------------------------------------------------------
    # Synchronous facade
    # ------------------------------------------------------------------
    def run(self, duration: SimTime, join: bool = False, timeout: SimTime = 60.0) -> SimTime:
        """Boot, run for ``duration`` units, optionally join, shut down."""
        return asyncio.run(self._session(duration, join, timeout))

    async def _session(self, duration: SimTime, join: bool, timeout: SimTime) -> SimTime:
        await self.start()
        await self.run_for(duration)
        if join:
            await self.join(timeout=timeout)
        await self.shutdown()
        return self.now
