"""Failure and partition injection schedules.

Experiments describe *what goes wrong when* declaratively::

    injector = FailureInjector(sim)
    injector.crash_at(50.0, pid=3)
    injector.recover_at(120.0, pid=3)
    injector.partition_at(200.0, groups=[{0, 1, 2}, {3, 4}])
    injector.merge_at(300.0)

Crashes are clean fail-stop (assumption a): the node stops, volatile state
and timers vanish, and no forged messages are ever produced.  Recovery hands
the node back whatever it kept in stable storage.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Set

from repro.priorities import PRIORITY_TIMER
from repro.types import ProcessId, SimTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulation import Simulation


class FailureInjector:
    """Declarative crash / recovery / partition scheduling."""

    def __init__(self, sim: "Simulation"):
        self.sim = sim

    def crash_at(self, time: SimTime, pid: ProcessId) -> None:
        """Crash ``pid`` at the given simulation time."""
        self.sim.scheduler.at(
            time,
            lambda: self._crash(pid),
            priority=PRIORITY_TIMER,
            label=f"inject crash P{pid}",
        )

    def recover_at(self, time: SimTime, pid: ProcessId) -> None:
        """Recover ``pid`` at the given simulation time."""
        self.sim.scheduler.at(
            time,
            lambda: self._recover(pid),
            priority=PRIORITY_TIMER,
            label=f"inject recovery P{pid}",
        )

    def partition_at(self, time: SimTime, groups: List[Set[ProcessId]]) -> None:
        """Partition the network into ``groups`` at the given time."""
        self.sim.scheduler.at(
            time,
            lambda: self.sim.network.partition(groups),
            priority=PRIORITY_TIMER,
            label="inject partition",
        )

    def merge_at(self, time: SimTime) -> None:
        """Heal all partitions at the given time."""
        self.sim.scheduler.at(
            time,
            lambda: self.sim.network.merge(),
            priority=PRIORITY_TIMER,
            label="inject merge",
        )

    # Internal indirections keep the lambdas tiny and let subclasses hook.
    def _crash(self, pid: ProcessId) -> None:
        if self.sim.is_alive(pid):
            self.sim.crash(pid)

    def _recover(self, pid: ProcessId) -> None:
        if not self.sim.is_alive(pid):
            self.sim.recover(pid)
