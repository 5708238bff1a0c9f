"""Workload framework.

A :class:`Workload` drives application traffic (and optionally checkpoint /
rollback initiations) over an already-built simulation.  Workloads talk to
processes only through the narrow driver API that every protocol node in
this repository implements — ``send_app_message``, ``local_step``,
``initiate_checkpoint``, ``initiate_rollback`` — so the same workload runs
unchanged against the Leu-Bhargava processes and against every baseline.
This is what makes the Section 5 comparison apples-to-apples.

All randomness comes from named :class:`~repro.sim.rng.Rng` streams keyed by
the workload name, so changing one workload's parameters never perturbs
another's traffic pattern.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Protocol

from repro.types import ProcessId, SimTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulation import Simulation


class ProtocolDriver(Protocol):
    """What a workload needs from a protocol process."""

    node_id: ProcessId

    def send_app_message(self, dst: ProcessId, payload: object) -> None: ...
    def local_step(self) -> None: ...
    def initiate_checkpoint(self) -> object: ...
    def initiate_rollback(self) -> object: ...


class Workload:
    """Base class: subclasses override :meth:`install`."""

    name = "workload"

    def install(self, sim: "Simulation", procs: Dict[ProcessId, ProtocolDriver]) -> None:
        """Schedule this workload's events onto ``sim``."""
        raise NotImplementedError


def exponential_arrivals(
    sim: "Simulation",
    stream_name: tuple,
    rate: float,
    duration: SimTime,
    start: SimTime = 0.0,
) -> List[SimTime]:
    """Poisson-process arrival times in ``[start, start + duration)``.

    ``rate`` is events per time unit.  Materialised as a list (not a
    generator) so the install step fully determines the schedule up front —
    easier to reason about in tests.
    """
    stream = sim.rng.stream(*stream_name)
    times: List[SimTime] = []
    t = start
    if rate <= 0:
        return times
    while True:
        t += stream.expovariate(rate)
        if t >= start + duration:
            return times
        times.append(t)
