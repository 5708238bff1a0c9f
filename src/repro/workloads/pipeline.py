"""Pipeline (dataflow) workload.

Items enter at the first stage and are forwarded hop by hop to the last.
The dependency structure is a chain, so checkpoint trees are paths and a
rollback at stage ``k`` cascades to every *downstream* stage — the scenario
that produced Figure 3's chain tree.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.core.app import CounterApp
from repro.types import ProcessId, SimTime
from repro.workloads.base import ProtocolDriver, Workload, exponential_arrivals

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulation import Simulation


class ForwardingApp(CounterApp):
    """Stage application: consume an item, forward it downstream."""

    def __init__(self, pid: ProcessId, downstream: Optional[ProcessId], delay: SimTime = 0.1):
        super().__init__(pid)
        self.downstream = downstream
        self.delay = delay
        self.process: Optional[ProtocolDriver] = None
        self.forwarded = 0

    def handle_message(self, src: ProcessId, payload: Any) -> None:
        super().handle_message(src, payload)
        if self.downstream is None or self.process is None:
            return
        self.forwarded += 1
        proc = self.process
        item = payload
        proc.sim.scheduler.after(
            self.delay,
            lambda: proc.send_app_message(self.downstream, item),
            label=f"stage P{self.pid} forward",
        )


class PipelineWorkload(Workload):
    """Poisson item injection into a linear pipeline of stages."""

    name = "pipeline"

    def __init__(
        self,
        stages: List[ProcessId],
        item_rate: float = 1.0,
        duration: SimTime = 100.0,
        stage_delay: SimTime = 0.1,
    ):
        if len(stages) < 2:
            raise ValueError("a pipeline needs at least two stages")
        self.stages = stages
        self.item_rate = item_rate
        self.duration = duration
        self.stage_delay = stage_delay

    def install(self, sim: "Simulation", procs: Dict[ProcessId, ProtocolDriver]) -> None:
        for position, pid in enumerate(self.stages):
            downstream = self.stages[position + 1] if position + 1 < len(self.stages) else None
            app = ForwardingApp(pid, downstream, self.stage_delay)
            app.process = procs[pid]
            procs[pid].engine.app = app

        source = procs[self.stages[0]]
        first_hop = self.stages[1]
        for k, t in enumerate(
            exponential_arrivals(sim, (self.name, "inject"), self.item_rate, self.duration)
        ):
            sim.scheduler.at(
                t,
                lambda i=k: source.send_app_message(first_hop, f"item-{i}"),
                label="pipeline inject",
            )
