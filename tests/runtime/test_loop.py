"""AsyncScheduler / AsyncRuntime kernel-contract tests.

Every test wraps its coroutine in ``asyncio.wait_for`` so a deadlock can
never hang the suite (there is no pytest-asyncio/pytest-timeout dependency).
"""

import asyncio

import pytest

from repro.errors import SimulationError
from repro.kernel import KernelLike
from repro.runtime.loop import AsyncRuntime, AsyncScheduler
from repro.sim import Simulation
from repro.sim.node import Node
from repro.sim.scheduler import Scheduler, Timer, TimerHeap


def run(coro, timeout=30.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


class Recorder(Node):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.events = []

    def on_start(self):
        self.events.append("start")


# ----------------------------------------------------------------------
# Contract conformance
# ----------------------------------------------------------------------

def test_both_kernels_satisfy_the_protocols():
    assert isinstance(Simulation(), KernelLike)
    assert isinstance(AsyncRuntime(), KernelLike)
    assert isinstance(Scheduler(), TimerHeap)
    assert isinstance(AsyncScheduler(), TimerHeap)


def test_sim_and_async_timer_handles_share_the_contract():
    sim_handle = Scheduler().at(1.0, lambda: None)
    async_handle = AsyncScheduler().at(1.0, lambda: None)
    assert type(sim_handle) is Timer
    assert type(async_handle) is Timer


# ----------------------------------------------------------------------
# Scheduler semantics
# ----------------------------------------------------------------------

def test_preloop_timers_fire_after_start():
    fired = []
    scheduler = AsyncScheduler(time_scale=0.01)
    scheduler.at(1.0, lambda: fired.append("a"))
    scheduler.after(2.0, lambda: fired.append("b"))
    assert scheduler.pending == 2
    assert fired == []

    async def scenario():
        scheduler.attach(asyncio.get_running_loop())
        await asyncio.sleep(0.05)

    run(scenario())
    assert fired == ["a", "b"]
    assert scheduler.pending == 0


def test_cancel_works_before_and_after_attach():
    fired = []
    scheduler = AsyncScheduler(time_scale=0.01)
    early = scheduler.at(1.0, lambda: fired.append("early"))
    early.cancel()
    early.cancel()  # idempotent
    assert early.cancelled

    async def scenario():
        scheduler.attach(asyncio.get_running_loop())
        late = scheduler.at(scheduler.now + 1.0, lambda: fired.append("late"))
        late.cancel()
        await asyncio.sleep(0.05)

    run(scenario())
    assert fired == []
    assert scheduler.timers_cancelled == 2
    assert scheduler.pending == 0


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        AsyncScheduler().after(-1.0, lambda: None)


def test_scheduling_in_the_past_clamps_to_now():
    fired = []
    scheduler = AsyncScheduler(time_scale=0.01)

    async def scenario():
        scheduler.attach(asyncio.get_running_loop())
        await asyncio.sleep(0.03)  # now is well past 0
        scheduler.at(0.0, lambda: fired.append(scheduler.now))
        await asyncio.sleep(0.03)

    run(scenario())
    assert len(fired) == 1
    assert fired[0] >= 0.0


def test_callback_errors_are_collected_not_fatal():
    def boom():
        raise ValueError("protocol bug")

    runtime = AsyncRuntime(time_scale=0.01)
    runtime.scheduler.at(0.5, boom, label="boom")

    async def scenario():
        await runtime.start()
        await runtime.run_for(2.0)
        with pytest.raises(SimulationError, match="boom"):
            await runtime.shutdown()

    run(scenario())


# ----------------------------------------------------------------------
# Runtime lifecycle
# ----------------------------------------------------------------------

def test_now_advances_in_protocol_units_and_freezes_at_shutdown():
    runtime = AsyncRuntime(time_scale=0.01)

    async def scenario():
        await runtime.start()
        assert runtime.now < 1.0
        await runtime.run_for(5.0)
        assert runtime.now >= 5.0
        await runtime.shutdown()

    run(scenario())
    frozen = runtime.now
    assert frozen >= 5.0
    assert runtime.now == frozen  # clock no longer ticks


def test_on_start_fires_and_double_start_rejected():
    runtime = AsyncRuntime(time_scale=0.01)
    node = runtime.add_node(Recorder(0))

    async def scenario():
        await runtime.start()
        with pytest.raises(SimulationError):
            await runtime.start()
        await runtime.shutdown()

    run(scenario())
    assert node.events == ["start"]


def test_join_reaches_quiescence():
    runtime = AsyncRuntime(time_scale=0.01)
    fired = []
    runtime.scheduler.at(1.0, lambda: fired.append(1))
    runtime.scheduler.at(2.0, lambda: fired.append(2))

    async def scenario():
        await runtime.start()
        await runtime.join(timeout=30.0)
        assert runtime.scheduler.pending == 0
        await runtime.shutdown()

    run(scenario())
    assert fired == [1, 2]


def test_wait_until_times_out():
    runtime = AsyncRuntime(time_scale=0.01)

    async def scenario():
        await runtime.start()
        with pytest.raises(SimulationError, match="timed out"):
            await runtime.wait_until(lambda: False, timeout=1.0)
        await runtime.shutdown()

    run(scenario())


def test_sync_run_facade():
    runtime = AsyncRuntime(time_scale=0.01)
    runtime.add_node(Recorder(0))
    final = runtime.run(2.0, join=True)
    assert final >= 2.0


def test_crash_cancels_timers_like_the_sim():
    runtime = AsyncRuntime(time_scale=0.01)
    node = runtime.add_node(Recorder(0))
    fired = []

    async def scenario():
        await runtime.start()
        node.set_timer("t", 5.0, lambda: fired.append("t"))
        runtime.crash(0)
        assert not runtime.is_alive(0)
        runtime.recover(0)
        assert runtime.is_alive(0)
        await runtime.run_for(7.0)
        await runtime.shutdown()

    run(scenario())
    assert fired == []  # crash cancelled the timer
    kinds = [e.kind for e in runtime.trace.events]
    assert "crash" in kinds and "recover" in kinds
