"""Failure detector (paper Section 6, assumption c).

"Operational processes are informed of process failures in finite time."

The detector is an oracle attached to one kernel: when a crash or recovery
is reported it schedules a notification to every operational node *that
kernel hosts* after a configurable detection latency.  Nodes receive it
through ``Node.on_failure_notice`` / ``Node.on_recovery_notice``.  Reports
and beliefs cover the kernel's whole population (on a shard kernel that is
the whole cluster — remote transitions are relayed by the parent); the
fan-out stops at the hosted nodes, which on a single kernel is everybody.

Nodes that are themselves down when the notification fires are skipped; a
recovering process instead learns the current status snapshot via
:meth:`status_snapshot` during its restart procedure (the paper's monitors
[2, 9, 22] provide the same).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Set, Tuple

from repro.priorities import PRIORITY_TIMER
from repro.types import ProcessId, SimTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulation import Simulation


class FailureDetector:
    """Perfect failure detector with bounded detection latency."""

    def __init__(self, sim: "Simulation", detection_latency: SimTime = 1.0):
        self.sim = sim
        self.detection_latency = detection_latency
        self._known_down: Set[ProcessId] = set()
        self._views: Tuple[FrozenSet[ProcessId], Tuple[ProcessId, ...]] = (frozenset(), ())
        self._views_generation = -1  # no kernel generation is negative
        sim.failure_detector = self
        sim.membership.subscribe(self._on_view_change)

    # ------------------------------------------------------------------
    # Reports from the simulation
    # ------------------------------------------------------------------
    def report_crash(self, pid: ProcessId) -> None:
        """Called by ``Simulation.crash``; fan out notices after the latency."""
        self._known_down.add(pid)
        self.sim.liveness_changed()
        self.sim.scheduler.after(
            self.detection_latency,
            lambda: self._notify_crash(pid),
            priority=PRIORITY_TIMER,
            label=f"detect crash P{pid}",
        )

    def report_recovery(self, pid: ProcessId) -> None:
        """Called by ``Simulation.recover``; fan out notices after the latency."""
        self._known_down.discard(pid)
        self.sim.liveness_changed()
        self.sim.scheduler.after(
            self.detection_latency,
            lambda: self._notify_recovery(pid),
            priority=PRIORITY_TIMER,
            label=f"detect recovery P{pid}",
        )

    def _notify_crash(self, pid: ProcessId) -> None:
        if self.sim.is_alive(pid):
            return  # raced with a recovery; the recovery notice supersedes
        for node in self.sim.operational_nodes(but=pid):
            node.on_failure_notice(pid)

    # ------------------------------------------------------------------
    # Membership plane
    # ------------------------------------------------------------------
    def _on_view_change(self, view: object) -> None:
        """Prune beliefs about pids that are no longer members."""
        self._known_down &= set(view.pids)  # type: ignore[attr-defined]
        self.sim.liveness_changed()

    def forget(self, pid: ProcessId) -> None:
        """A pid departed gracefully; it is neither up nor down."""
        self._known_down.discard(pid)
        self.sim.liveness_changed()

    def _notify_recovery(self, pid: ProcessId) -> None:
        if not self.sim.is_alive(pid):
            return  # crashed again before the notice fired
        for node in self.sim.operational_nodes(but=pid):
            node.on_recovery_notice(pid)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def status_snapshot(self) -> Dict[ProcessId, bool]:
        """Instantaneous up/down view (True = operational)."""
        return {pid: self.sim.is_alive(pid) for pid in self.sim.process_ids}

    def believed_down(self) -> Set[ProcessId]:
        """Processes currently believed failed (reported, not yet recovered)."""
        return set(self._known_down)

    def views(self) -> Tuple[FrozenSet[ProcessId], Tuple[ProcessId, ...]]:
        """``(believed_down, pids down in status_snapshot)``, built once per
        liveness generation.

        This is the pair every engine event carries (``down`` /
        ``status_down``).  Both halves change only at a transition that bumps
        the kernel's ``liveness_generation``, so every event in between
        shares one immutable pair instead of paying an n-wide recomputation.
        """
        generation = self.sim.liveness_generation
        if generation != self._views_generation:
            self._views = (
                frozenset(self.believed_down()),
                tuple(pid for pid, up in self.status_snapshot().items() if not up),
            )
            self._views_generation = generation
        return self._views
