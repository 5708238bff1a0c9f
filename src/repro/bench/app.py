"""E-APP — checkpoint-as-a-service: job workload vs. protocol overhead.

The question this experiment answers: when real application jobs ride the
checkpoint protocol, what does a crash actually *cost* — and what does
checkpointing actually *save*?

Sweep (discrete-event simulator — deterministic, honest on 1 CPU):
checkpoint interval × concurrent job count × kills.  Each point drives an
open-loop :class:`~repro.app.traffic.JobTraffic` stream (staged
fetch→transform→load pipelines, Poisson arrivals) against ``n`` hosting
nodes, optionally kills and restarts hosts mid-run, and reports:

* completion/durability counts and open-loop latency + goodput;
* ``reexec`` — units physically executed more than once, i.e. the work a
  restart repeated because it lay past the recovery line;
* ``salvaged`` — units the restored checkpoint covered (the audit's count
  of live units preserved across rollbacks);
* ``reexec_scratch`` — the same scenario rerun with checkpointing disabled
  (birth checkpoint only), so every restart starts jobs from scratch: the
  from-scratch baseline the measured resume savings are computed against;
* the job-outcome audit (:func:`repro.analysis.jobs.audit_jobs`) — its
  ``committed_stage_reexecutions`` must be **0** at every point.

One additional row runs the same workload on the *live* asyncio kernel
(loopback cluster, real timers and kill/restart) to witness that the sim
rows are not a simulator artifact.

``EAPP_QUICK=1`` shrinks the sweep for CI smoke runs; the recorded
BENCH_APP.json rows come from the full sweep (jobs up to 1000).
"""

from __future__ import annotations

import asyncio
import os
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis import check_c1_from_trace, audit_jobs
from repro.app.state import AppProcess
from repro.app.traffic import JobTraffic
from repro.core import ProtocolConfig
from repro.errors import ConsistencyViolation
from repro.testing import build_sim
from repro.types import SimTime

# Full sweep: checkpoint interval x job count x kills.
INTERVALS: Sequence[SimTime] = (4.0, 8.0, 16.0)
JOB_COUNTS: Sequence[int] = (200, 1000)
QUICK_INTERVALS: Sequence[SimTime] = (6.0,)
QUICK_JOB_COUNTS: Sequence[int] = (120,)

N_NODES = 8
STAGES: Tuple[int, ...] = (2, 2, 2)
UNIT_TIME: SimTime = 0.25
RETRY: SimTime = 1.0
ARRIVAL_WINDOW: SimTime = 30.0   # all jobs arrive within this window
HORIZON: SimTime = 120.0
RUN_UNTIL: SimTime = 125.0
KILLS = 2                        # hosts killed in the kills-enabled points
# The first kill lands after even the widest-interval point has committed a
# checkpoint (t=16 at interval 16) but while arrivals are still in flight,
# so every sweep point measures a restore from real progress, not birth.
KILL_AT: SimTime = 18.0
DOWNTIME: SimTime = 6.0
KILL_STAGGER: SimTime = 7.0


def quick_mode() -> bool:
    """True when the reduced CI sweep was requested via ``EAPP_QUICK``."""
    return os.environ.get("EAPP_QUICK", "") not in ("", "0")


def _drive_sim(
    jobs: int,
    interval: Optional[SimTime],
    kills: int,
    seed: int = 0,
) -> Dict[str, Any]:
    """One simulated point: traffic + optional kill/restart schedule."""
    config = ProtocolConfig(checkpoint_interval=interval, failure_resilience=True)
    sim, procs = build_sim(
        n=N_NODES, seed=seed, cls=AppProcess, config=config,
        detector_latency=1.0, spoolers=True,
    )
    traffic = JobTraffic(
        jobs=jobs, rate=jobs / ARRIVAL_WINDOW, stages=STAGES,
        unit_time=UNIT_TIME, retry=RETRY, horizon=HORIZON,
    )
    traffic.install(sim, procs)
    for i in range(kills):
        pid = 1 + i
        t_kill = KILL_AT + i * KILL_STAGGER
        sim.scheduler.at(t_kill, lambda p=pid: sim.crash(p), label=f"kill P{pid}")
        sim.scheduler.at(
            t_kill + DOWNTIME, lambda p=pid: sim.recover(p), label=f"restart P{pid}"
        )
    t0 = time.perf_counter()
    sim.run(until=RUN_UNTIL)
    wall = time.perf_counter() - t0
    metrics = traffic.metrics()
    audit = audit_jobs(sim.trace.index)
    committed = sum(len(p.committed_history) for p in procs.values())
    return {
        "metrics": metrics,
        "audit": audit,
        "committed_checkpoints": committed,
        "wall_s": wall,
    }


def app_row(
    jobs: int, interval: SimTime, kills: int, scratch_reexec: Optional[int]
) -> Dict[str, Any]:
    """One sweep row (checkpointing on), with the from-scratch comparator."""
    result = _drive_sim(jobs, interval, kills)
    metrics, audit = result["metrics"], result["audit"]
    reexec = metrics["units_reexecuted"]
    row: Dict[str, Any] = {
        "kernel": "sim",
        "n": N_NODES,
        "jobs": jobs,
        "interval": interval,
        "kills": kills,
        "jobs_done": metrics["jobs_done"],
        "jobs_durable": metrics["jobs_durable"],
        "latency_mean": round(metrics["latency_mean"], 2)
        if metrics["latency_mean"] is not None else None,
        "goodput": round(metrics["goodput"], 2)
        if metrics["goodput"] is not None else None,
        "units": metrics["units_needed_done"],
        "reexec": reexec,
        "salvaged": audit["units_salvaged"],
        "stage_reexec_violations": audit["committed_stage_reexecutions"],
        "committed_checkpoints": result["committed_checkpoints"],
        "wall_s": round(result["wall_s"], 2),
    }
    if kills and scratch_reexec is not None:
        row["reexec_scratch"] = scratch_reexec
        row["savings_pct"] = round(
            100.0 * (1.0 - reexec / scratch_reexec) if scratch_reexec else 0.0, 1
        )
    return row


def live_row(jobs: int = 40, interval: SimTime = 6.0) -> Dict[str, Any]:
    """The same workload on the live asyncio kernel, kill/restart included."""
    from repro.runtime.cluster import Cluster

    async def drive(root: str) -> Dict[str, Any]:
        config = ProtocolConfig(checkpoint_interval=interval, failure_resilience=True)
        cluster = Cluster(
            n=4, root=root, seed=0, transport="loopback", config=config,
            process_cls=AppProcess, time_scale=0.005,
        )
        traffic = JobTraffic(
            jobs=jobs, rate=jobs / ARRIVAL_WINDOW, stages=STAGES,
            unit_time=UNIT_TIME, retry=RETRY, horizon=80.0,
        )
        traffic.install(cluster.runtime, cluster.procs)
        cluster.kill(1, at=KILL_AT)
        cluster.restart(1, at=KILL_AT + DOWNTIME)
        await cluster.start()
        await cluster.wait_until(
            lambda: all(h.durable for h in traffic.driver.handles.values()),
            timeout=400.0, what="live app jobs to complete durably",
        )
        await cluster.quiesce()
        await cluster.shutdown()
        metrics = traffic.metrics()
        index = cluster.merged_index()
        audit = audit_jobs(index)
        try:
            check_c1_from_trace(index, sorted(cluster.procs))
            c1 = True
        except ConsistencyViolation:
            c1 = False
        return {"metrics": metrics, "audit": audit, "c1": c1}

    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as root:
        result = asyncio.run(drive(root))
    metrics, audit = result["metrics"], result["audit"]
    return {
        "kernel": "live",
        "n": 4,
        "jobs": jobs,
        "interval": interval,
        "kills": 1,
        "jobs_done": metrics["jobs_done"],
        "jobs_durable": metrics["jobs_durable"],
        "latency_mean": round(metrics["latency_mean"], 2)
        if metrics["latency_mean"] is not None else None,
        "goodput": round(metrics["goodput"], 2)
        if metrics["goodput"] is not None else None,
        "units": metrics["units_needed_done"],
        "reexec": metrics["units_reexecuted"],
        "salvaged": audit["units_salvaged"],
        "stage_reexec_violations": audit["committed_stage_reexecutions"],
        "c1": result["c1"],
        "wall_s": round(time.perf_counter() - t0, 2),
    }


def experiment_app() -> List[Dict[str, Any]]:
    """The E-APP table: sim sweep + one live witness row."""
    intervals = QUICK_INTERVALS if quick_mode() else INTERVALS
    job_counts = QUICK_JOB_COUNTS if quick_mode() else JOB_COUNTS
    rows: List[Dict[str, Any]] = []
    for jobs in job_counts:
        # One from-scratch comparator per job count: same kills, birth
        # checkpoint only, so every restart loses all progress.
        scratch = _drive_sim(jobs, None, KILLS)
        scratch_reexec = scratch["metrics"]["units_reexecuted"]
        for interval in intervals:
            for kills in (0, KILLS):
                rows.append(
                    app_row(jobs, interval, kills, scratch_reexec if kills else None)
                )
    rows.append(live_row())
    return rows
