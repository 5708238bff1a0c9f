"""Pessimistic network-partition handling (paper Section 6, last part).

"It is impossible to distinguish a failed process from an operational
process in a different partition" — so the paper treats partitioning
pessimistically with weighted voting:

* processes in a *minor* partition (≤ half the votes) are regarded as
  failed: they go dormant, initiating nothing and answering nothing;
* processes in the *major* partition treat everyone outside it as failed
  and apply the Section 6 rules 1-6 to unblock their instances;
* when a minor partition merges back, its processes follow rule 3 exactly
  as if they were restarting after a crash;
* a major partition that splits further re-determines the major on a
  relative basis (:class:`repro.failure.votes.VoteRegistry`).

:class:`PartitionCoordinator` drives all of this against a simulation: call
:meth:`split` / :meth:`heal` (directly or via scheduled events).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Set

from repro.failure.votes import VoteRegistry
from repro.types import ProcessId

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.process import CheckpointProcess
    from repro.sim.simulation import Simulation


class PartitionCoordinator:
    """Applies the pessimistic voting policy to partition events."""

    def __init__(self, sim: "Simulation", votes: VoteRegistry) -> None:
        self.sim = sim
        self.votes = votes
        self._dormant: Set[ProcessId] = set()

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def split(self, groups: List[Set[ProcessId]]) -> None:
        """Partition the network and apply the majority policy."""
        self.sim.network.partition(groups)
        labels = self.votes.classify(groups)
        major: Set[ProcessId] = set()
        for group, label in labels.items():
            if label == "major":
                major = set(group)
        for group, label in labels.items():
            if label == "major":
                continue
            for pid in group:
                self._make_dormant(pid)
        # Major-side processes regard everyone outside as failed and apply
        # rules 1-6 immediately (the status monitors flag the partition at
        # once; the failure detector was additionally informed by
        # _make_dormant so later fan-outs skip the regarded-failed peers).
        for pid in sorted(major):
            node = self.sim.nodes[pid]
            if node.crashed or pid in self._dormant:
                continue
            for other in self.sim.process_ids:
                if other != pid and other not in major:
                    node.on_failure_notice(other)

    def heal(self) -> None:
        """Merge all partitions; dormant processes recover via rule 3."""
        self.sim.network.merge()
        self.votes.on_merge(self.sim.process_ids)
        woken = sorted(self._dormant)
        self._dormant.clear()
        for pid in woken:
            # Dormancy is modelled through the crashed flag, so every
            # process we put to sleep is woken here (rule 3).
            self._wake(self.sim.nodes[pid])

    def schedule_split(self, time: float, groups: List[Set[ProcessId]]) -> None:
        self.sim.scheduler.at(time, lambda: self.split(groups), label="partition split")

    def schedule_heal(self, time: float) -> None:
        self.sim.scheduler.at(time, self.heal, label="partition heal")

    # ------------------------------------------------------------------
    # Per-process effects
    # ------------------------------------------------------------------
    def _make_dormant(self, pid: ProcessId) -> None:
        """A minority process is "regarded to be failed": it stops working.

        We model dormancy as a crash without losing the node object: volatile
        protocol state is dropped exactly as on a real crash, which is sound
        because rule 3 will rebuild it from stable storage on merge.
        """
        node = self.sim.nodes[pid]
        if node.crashed or pid in self._dormant:
            return
        self._dormant.add(pid)
        node.cancel_all_timers()
        node.on_crash()
        self.sim.set_crashed(node, True)
        if self.sim.failure_detector is not None:
            self.sim.failure_detector.report_crash(pid)

    def _wake(self, node: "CheckpointProcess") -> None:
        """On merge, a minority process follows rule 3 (restart protocol)."""
        self.sim.set_crashed(node, False)
        node.on_recover()
        if self.sim.failure_detector is not None:
            self.sim.failure_detector.report_recovery(node.node_id)

    @property
    def dormant(self) -> Set[ProcessId]:
        return set(self._dormant)
