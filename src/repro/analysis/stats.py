"""Run metrics for the Section 5 comparison experiments.

Everything is computed from the trace and the network counters, so the same
collector works for the Leu-Bhargava processes and for every baseline (they
all emit the same trace vocabulary).

Key metrics (one row of the measured comparison table):

* ``forced_checkpoints_per_instance`` — how many processes beyond the
  initiator took a checkpoint per committed instance (the minimality axis);
* ``control_messages`` — protocol overhead;
* ``send_blocked_time`` / ``comm_blocked_time`` — total process-time spent
  with sends (resp. sends+receives) suspended (the blocking axis, where the
  Section 3.5.3 extension and the blocking baselines differ most);
* instance outcome counts — committed / aborted / rejected (the concurrency
  axis: Koo-Toueg rejects interfering instances, Leu-Bhargava completes
  them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro import tracekinds as T
from repro.analysis.tree_view import reconstruct_trees
from repro.types import SimTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulation import Simulation


@dataclass
class RunStats:
    """Aggregated metrics of one simulation run."""

    duration: SimTime = 0.0
    processes: int = 0
    normal_messages: int = 0
    control_messages: int = 0
    discarded_messages: int = 0
    checkpoints_tentative: int = 0
    checkpoints_committed: int = 0
    checkpoints_aborted: int = 0
    rollbacks: int = 0
    instances_started: int = 0
    instances_committed: int = 0
    instances_aborted: int = 0
    instances_rejected: int = 0
    send_blocked_time: SimTime = 0.0
    comm_blocked_time: SimTime = 0.0
    forced_per_instance: List[int] = field(default_factory=list)
    tree_depths: List[int] = field(default_factory=list)
    instance_latencies: List[SimTime] = field(default_factory=list)

    @property
    def mean_forced(self) -> float:
        return sum(self.forced_per_instance) / len(self.forced_per_instance) if self.forced_per_instance else 0.0

    @property
    def max_forced(self) -> int:
        return max(self.forced_per_instance) if self.forced_per_instance else 0

    @property
    def mean_latency(self) -> float:
        return sum(self.instance_latencies) / len(self.instance_latencies) if self.instance_latencies else 0.0

    def as_row(self) -> Dict[str, object]:
        """Flat dict for table printers."""
        return {
            "processes": self.processes,
            "normal_msgs": self.normal_messages,
            "control_msgs": self.control_messages,
            "instances": self.instances_started,
            "committed": self.instances_committed,
            "aborted": self.instances_aborted,
            "rejected": self.instances_rejected,
            "mean_forced": round(self.mean_forced, 2),
            "max_forced": self.max_forced,
            "send_blocked": round(self.send_blocked_time, 2),
            "comm_blocked": round(self.comm_blocked_time, 2),
            "mean_latency": round(self.mean_latency, 3),
        }


def collect(sim: "Simulation") -> RunStats:
    """Compute :class:`RunStats` for a finished simulation.

    Reads the trace through its :class:`~repro.analysis.index.TraceIndex`:
    outcome counters are O(1) index lookups, and the latency / blocked-time
    walks only touch the (few) lifecycle and suspension events instead of
    re-scanning the whole trace.
    """
    index = sim.trace.index
    stats = RunStats(
        duration=sim.now,
        processes=len(sim.nodes),
        normal_messages=sim.network.normal_sent,
        control_messages=sim.network.control_sent,
        discarded_messages=index.count(T.K_DISCARD),
        checkpoints_tentative=index.count(T.K_CHKPT_TENTATIVE),
        checkpoints_committed=index.count(T.K_CHKPT_COMMIT),
        checkpoints_aborted=index.count(T.K_CHKPT_ABORT),
        rollbacks=index.count(T.K_ROLLBACK),
        instances_started=index.count(T.K_INSTANCE_START),
        instances_committed=index.count(T.K_INSTANCE_COMMIT),
        instances_aborted=index.count(T.K_INSTANCE_ABORT),
        instances_rejected=index.count(T.K_INSTANCE_REJECTED),
    )

    # Commit latency: pair each commit with the latest start of its tree
    # seen so far (trace order), exactly as the old full scan did.
    started_at: Dict[object, SimTime] = {}
    for event in index.by_kind(T.K_INSTANCE_START, T.K_INSTANCE_COMMIT):
        if event.kind == T.K_INSTANCE_START:
            started_at[event.fields["tree"]] = event.time
        else:
            begun = started_at.get(event.fields["tree"])
            if begun is not None:
                stats.instance_latencies.append(event.time - begun)

    # Suspension accounting pairs suspend/resume per process, charging
    # still-open suspensions up to the end of the run.
    for pid in index.pids():
        since: Optional[SimTime] = None
        for event in index.for_process(pid, T.K_SUSPEND_SEND, T.K_RESUME_SEND):
            if event.kind == T.K_SUSPEND_SEND:
                since = event.time
            elif since is not None:
                stats.send_blocked_time += event.time - since
                since = None
        if since is not None:
            stats.send_blocked_time += sim.now - since

        since = None
        for event in index.for_process(pid, T.K_SUSPEND_ALL, T.K_RESUME_ALL):
            if event.kind == T.K_SUSPEND_ALL:
                since = event.time
            elif since is not None:
                stats.comm_blocked_time += event.time - since
                since = None
        if since is not None:
            stats.comm_blocked_time += sim.now - since

    for tree in reconstruct_trees(index).values():
        stats.forced_per_instance.append(len(tree.participants))
        stats.tree_depths.append(tree.depth())

    return stats
