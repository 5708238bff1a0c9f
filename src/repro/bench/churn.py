"""E-CHURN — checkpointing under membership churn: LB 2PC vs cooperative.

The membership plane claims churn is cheap: a join is inert for open
instances, a graceful leave resolves its own obligations, and neither
perturbs anyone else's checkpointing.  This experiment measures that at
cluster scale (n >= 256) for the two algorithms that scope their
checkpoints by communication history — the Leu-Bhargava 2PC trees and the
Nakamura-style cooperative partial snapshots — with and without churn.

Methodology: ``n`` processes under a locality-bounded Poisson workload
(each process messages only its ``LOCALITY`` nearest ids, the regime where
dependency-scoped checkpointing pays) initiate checkpoints autonomously
for a fixed protocol-time duration.  At nonzero churn, ``churn`` brand-new
pids join and ``churn`` members gracefully leave (each with a successor
handoff), spread across the middle of the run.  No crashes and no
rollbacks: the cooperative baseline deliberately has no recovery protocol,
so the comparison is checkpoint cost, scope, and consistency only.

Per row: committed/aborted instance counts, control messages per committed
instance, mean *scope* (processes checkpointing per committed instance —
tree participants for LB, snapshot-group size for cooperative), and the
churn-tolerant C1 battery verdict over the merged trace (mid-trace joiner
manifests, departed pids excluded as settled history).

``ECHURN_QUICK=1`` shrinks the sweep to CI size (n=24, one seed).
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Sequence, Type

from repro import tracekinds as T
from repro.analysis import check_c1_from_trace
from repro.analysis.stats import collect
from repro.baselines import CooperativeProcess
from repro.core.process import CheckpointProcess
from repro.net import UniformDelay
from repro.testing import build_sim
from repro.workloads import RandomPeerWorkload

SIZES: Sequence[int] = (256,)
CHURN_LEVELS: Sequence[int] = (0, 8)
SEEDS = 3
DURATION = 40.0
QUICK_SIZES: Sequence[int] = (24,)
QUICK_CHURN_LEVELS: Sequence[int] = (0, 3)
QUICK_SEEDS = 1

LOCALITY = 4          # id-distance each process messages within
MESSAGE_RATE = 0.2    # sends per process per time unit
CHECKPOINT_RATE = 0.02  # autonomous initiations per process per time unit

ALGORITHMS: Dict[str, Type[CheckpointProcess]] = {
    "leu-bhargava": CheckpointProcess,
    "cooperative": CooperativeProcess,
}


def quick_mode() -> bool:
    """True when the reduced CI sweep was requested via ``ECHURN_QUICK``."""
    return os.environ.get("ECHURN_QUICK", "") not in ("", "0")


def _schedule_churn(sim, cls: Type[CheckpointProcess], n: int, churn: int,
                    duration: float) -> None:
    """Interleave ``churn`` joins and ``churn`` leaves across the run's middle.

    Joins admit brand-new pids ``n .. n+churn-1``; leaves retire the highest
    seed pids, each handing its obligations to a distinct low pid (low pids
    never leave, so every successor outlives the run).
    """
    for k in range(churn):
        join_at = duration * (0.20 + 0.55 * k / max(churn, 1))
        leave_at = duration * (0.30 + 0.55 * k / max(churn, 1))
        sim.scheduler.at(
            join_at,
            lambda pid=n + k: sim.join_node(cls(pid, None)),
            label=f"churn join P{n + k}",
        )
        sim.scheduler.at(
            leave_at,
            lambda pid=n - 1 - k, succ=k: sim.leave_node(pid, successor=succ),
            label=f"churn leave P{n - 1 - k}",
        )


def churn_row(name: str, cls: Type[CheckpointProcess], n: int, churn: int,
              seeds: int, duration: float) -> Dict[str, Any]:
    """One sweep point: ``seeds`` runs of ``cls`` at size ``n``, aggregated."""
    committed = aborted = ctrl = 0
    scopes: List[float] = []
    start = time.perf_counter()
    for seed in range(seeds):
        sim, procs = build_sim(
            n=n, seed=seed, cls=cls, delay=UniformDelay(0.2, 0.6),
        )
        _schedule_churn(sim, cls, n, churn, duration)
        RandomPeerWorkload(
            message_rate=MESSAGE_RATE,
            duration=duration,
            step_rate=0.0,
            checkpoint_rate=CHECKPOINT_RATE,
            locality=LOCALITY,
        ).install(sim, procs)
        sim.run(until=duration * 3, max_events=4_000_000)
        stats = collect(sim)
        committed += stats.instances_committed
        aborted += stats.instances_aborted
        ctrl += stats.control_messages
        if name == "cooperative":
            # The commit record carries the snapshot group's size.
            scopes.extend(
                e.fields["group"]
                for e in sim.trace.index.by_kind(T.K_INSTANCE_COMMIT)
            )
        else:
            scopes.extend(stats.forced_per_instance)
        # The churn-tolerant battery: mid-trace joiners, departed leavers.
        check_c1_from_trace(sim.trace)
    return {
        "algorithm": name,
        "n": n,
        "joins": churn,
        "leaves": churn,
        "seeds": seeds,
        "committed": committed,
        "aborted": aborted,
        "ctrl_per_commit": round(ctrl / committed, 2) if committed else 0.0,
        "mean_scope": round(sum(scopes) / len(scopes), 2) if scopes else 0.0,
        "c1_ok": True,
        "wall_s": round(time.perf_counter() - start, 2),
    }


def experiment_churn() -> List[Dict[str, Any]]:
    """The E-CHURN table (see EXPERIMENTS.md)."""
    sizes = QUICK_SIZES if quick_mode() else SIZES
    churn_levels = QUICK_CHURN_LEVELS if quick_mode() else CHURN_LEVELS
    seeds = QUICK_SEEDS if quick_mode() else SEEDS
    duration = DURATION
    rows: List[Dict[str, Any]] = []
    for n in sizes:
        for churn in churn_levels:
            for name, cls in ALGORITHMS.items():
                rows.append(churn_row(name, cls, n, churn, seeds, duration))
    return rows
