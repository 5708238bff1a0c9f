"""Ablation and scaling experiments beyond the paper's own artifacts.

DESIGN.md calls out several design dimensions worth quantifying:

* **E-SCALE** — how instance cost (tree size, control messages, latency)
  grows with the system size n;
* **E-ABL-FREQ** — checkpoint frequency vs. the work lost to a rollback
  (the classic checkpoint-interval trade-off, measurable here because the
  application digests its history);
* **E-ABL-DETECT** — failure-detection latency vs. how long survivors stay
  blocked on a crashed peer (the Section 6 rules fire on detection);
* **E-ABL-TOPOLOGY** — how the workload's communication shape (random,
  client-server, pipeline, ring) molds the checkpoint trees.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro import tracekinds as T
from repro.analysis import check_recovery_line, collect, reconstruct_trees
from repro.core import ProtocolConfig
from repro.failure import FailureInjector
from repro.net import UniformDelay
from repro.testing import build_sim, run_random_workload
from repro.workloads import (
    ClientServerWorkload,
    PipelineWorkload,
    RandomPeerWorkload,
    RingWorkload,
)


def experiment_scale(sizes=(4, 8, 16, 32), seeds: int = 3) -> List[Dict[str, Any]]:
    """E-SCALE: per-instance cost as the system grows.

    An instance's scope is the *transitive dependency set since the last
    checkpoints*, so the meaningful scaling regime bounds that window:
    communication is neighbourhood-local (peers within id-distance 2) and
    the measured instance fires after a short traffic burst.  The instance
    cost then tracks the dependency neighbourhood, not n — the regime where
    the paper's minimality beats the all-process Tamir-Séquin approach.
    A long-window run is reported alongside for contrast: given enough
    unchecked traffic, dependencies percolate and any correct coordinated
    scheme must recruit almost everyone.
    """
    rows = []
    for n in sizes:
        burst_forced: List[int] = []
        burst_depths: List[int] = []
        long_forced: List[int] = []
        for seed in range(seeds):
            # Short burst: 2 time units of local traffic, then one instance.
            sim, procs = build_sim(n=n, seed=seed, delay=UniformDelay(0.4, 0.9))
            RandomPeerWorkload(message_rate=1.0, duration=2.0,
                               locality=2).install(sim, procs)
            sim.scheduler.at(6.0, lambda p=procs, k=n // 2: p[k].initiate_checkpoint())
            sim.run(max_events=800000)
            trees = reconstruct_trees(sim.trace)
            tree = next(t for t in trees.values() if t.kind == "checkpoint")
            burst_forced.append(len(tree.participants))
            burst_depths.append(tree.depth())

            # Long window: 30 units of local traffic with sparse checkpoints.
            sim, procs = build_sim(n=n, seed=seed + 500, delay=UniformDelay(0.4, 0.9))
            RandomPeerWorkload(message_rate=1.0, duration=30.0,
                               checkpoint_rate=0.03, locality=2).install(sim, procs)
            sim.run(max_events=800000)
            stats = collect(sim)
            long_forced.extend(stats.forced_per_instance)
        rows.append({
            "n": n,
            "burst_mean_forced": sum(burst_forced) / len(burst_forced),
            "burst_max_forced": max(burst_forced),
            "burst_mean_depth": sum(burst_depths) / len(burst_depths),
            "long_window_mean_forced": (
                sum(long_forced) / len(long_forced) if long_forced else 0.0
            ),
        })
    return rows


def experiment_checkpoint_frequency(
    intervals=(5.0, 10.0, 20.0, 40.0), seeds: int = 4
) -> List[Dict[str, Any]]:
    """E-ABL-FREQ: checkpoint interval vs. work lost per rollback.

    "Work" is the application's local-step + consume count; the loss of a
    rollback is how much of it the restored state forgets.
    """
    rows = []
    for interval in intervals:
        losses: List[int] = []
        checkpoints = 0
        for seed in range(seeds):
            sim, procs = build_sim(
                n=5, seed=seed, delay=UniformDelay(0.4, 0.9),
                config=ProtocolConfig(checkpoint_interval=interval),
            )
            RandomPeerWorkload(message_rate=1.0, duration=80.0,
                               step_rate=2.0).install(sim, procs)
            # One injected error late in the run.
            target = procs[seed % 5]
            def inject(proc=target, sink=losses):
                before = proc.app.steps + proc.app.consumed
                proc.initiate_rollback()
                after = proc.app.steps + proc.app.consumed
                sink.append(before - after)
            sim.scheduler.at(70.0, inject)
            sim.run(until=300.0, max_events=800000)
            checkpoints += len(sim.trace.index.by_kind(T.K_CHKPT_COMMIT))
        rows.append({
            "checkpoint_interval": interval,
            "mean_work_lost_per_rollback": sum(losses) / len(losses),
            "checkpoints_committed_per_seed": checkpoints // seeds,
        })
    return rows


def experiment_detection_latency(
    latencies=(0.5, 2.0, 8.0, 20.0), seeds: int = 4
) -> List[Dict[str, Any]]:
    """E-ABL-DETECT: detector latency vs. survivor blocked time."""
    rows = []
    for latency in latencies:
        blocked = 0.0
        for seed in range(seeds):
            sim, procs = build_sim(
                n=5, seed=seed, delay=UniformDelay(0.4, 0.9),
                config=ProtocolConfig(failure_resilience=True),
                detector_latency=latency, spoolers=True,
            )
            inj = FailureInjector(sim)
            inj.crash_at(20.0, pid=seed % 5)
            inj.recover_at(60.0, pid=seed % 5)
            run_random_workload(sim, procs, duration=70.0, message_rate=1.0,
                                checkpoint_rate=0.06, error_rate=0.01,
                                horizon=400.0, max_events=800000)
            alive = [p for p in procs.values() if not p.crashed]
            check_recovery_line(alive)
            stats = collect(sim)
            blocked += stats.send_blocked_time + stats.comm_blocked_time
        rows.append({
            "detection_latency": latency,
            "blocked_time_per_run": blocked / seeds,
        })
    return rows


def experiment_topology(seeds: int = 3) -> List[Dict[str, Any]]:
    """E-ABL-TOPOLOGY: workload shape vs. checkpoint-tree geometry."""
    shapes = {
        "random-peer": lambda: RandomPeerWorkload(message_rate=1.0, duration=30.0),
        "client-server": lambda: ClientServerWorkload(
            servers=[0], request_rate=1.0, duration=30.0),
        "pipeline": lambda: PipelineWorkload(
            stages=[0, 1, 2, 3, 4, 5], item_rate=1.0, duration=30.0),
        "ring": lambda: RingWorkload(tokens=2, hold_time=0.4, duration=30.0),
    }
    rows = []
    for name, factory in shapes.items():
        forced: List[int] = []
        depths: List[int] = []
        for seed in range(seeds):
            sim, procs = build_sim(n=6, seed=seed, delay=UniformDelay(0.3, 0.7))
            factory().install(sim, procs)
            sim.scheduler.at(20.0, lambda p=procs: p[3].initiate_checkpoint())
            sim.run(max_events=400000)
            trees = reconstruct_trees(sim.trace)
            tree = next(t for t in trees.values()
                        if t.kind == "checkpoint" and t.root == 3)
            forced.append(len(tree.participants))
            depths.append(tree.depth())
        rows.append({
            "workload": name,
            "mean_forced": sum(forced) / len(forced),
            "mean_depth": sum(depths) / len(depths),
            "max_depth": max(depths),
        })
    return rows
