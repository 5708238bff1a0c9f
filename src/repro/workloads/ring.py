"""Token-ring workload.

``tokens`` tokens circulate around the process ring, each held for
``hold_time`` before being forwarded.  Every process continuously depends on
its ring predecessor, so a single checkpoint initiation recruits the whole
ring — the worst case for tree size and the best case for observing shared
uncommitted checkpoints when several instances start at once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.core.app import CounterApp
from repro.types import ProcessId, SimTime
from repro.workloads.base import ProtocolDriver, Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulation import Simulation


class TokenApp(CounterApp):
    """Hold each arriving token briefly, then pass it to the successor."""

    def __init__(self, pid: ProcessId, successor: ProcessId, hold_time: SimTime, horizon: SimTime):
        super().__init__(pid)
        self.successor = successor
        self.hold_time = hold_time
        self.horizon = horizon
        self.process: Optional[ProtocolDriver] = None

    def handle_message(self, src: ProcessId, payload: Any) -> None:
        super().handle_message(src, payload)
        proc = self.process
        if proc is None or proc.sim.now >= self.horizon:
            return
        token = payload
        proc.sim.scheduler.after(
            self.hold_time,
            lambda: proc.send_app_message(self.successor, token),
            label=f"ring P{self.pid} pass",
        )


class RingWorkload(Workload):
    """Circulate ``tokens`` tokens around the ring until ``duration``."""

    name = "ring"

    def __init__(self, tokens: int = 1, hold_time: SimTime = 0.5, duration: SimTime = 100.0):
        self.tokens = tokens
        self.hold_time = hold_time
        self.duration = duration

    def install(self, sim: "Simulation", procs: Dict[ProcessId, ProtocolDriver]) -> None:
        pids = sorted(procs)
        for position, pid in enumerate(pids):
            successor = pids[(position + 1) % len(pids)]
            app = TokenApp(pid, successor, self.hold_time, self.duration)
            app.process = procs[pid]
            procs[pid].engine.app = app

        spacing = max(len(pids) // max(self.tokens, 1), 1)
        for k in range(self.tokens):
            holder = procs[pids[(k * spacing) % len(pids)]]
            sim.scheduler.at(
                0.5 + 0.01 * k,
                lambda h=holder, i=k: h.send_app_message(h.app.successor, f"token-{i}"),
                label="ring start token",
            )
