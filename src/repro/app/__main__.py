"""Demo CLI: serve jobs on a live cluster, kill a host, prove the resume.

Usage::

    python -m repro.app                             # 4 nodes, 60 jobs, kill P1
    python -m repro.app --jobs 120 --nodes 6
    python -m repro.app --kill 1@18 --restart 1@24  # choose the failure
    python -m repro.app --no-kill                   # failure-free control
    python -m repro.app --json out.json

Boots a loopback :class:`~repro.runtime.cluster.Cluster` whose nodes host
application jobs (:class:`~repro.app.state.AppProcess`), drives an
open-loop :class:`~repro.app.traffic.JobTraffic` stream against it, kills
and restarts one hosting node mid-run, waits for every job's completion to
become *durable* (covered by a committed checkpoint), then audits the
merged trace:

* the paper's C1 recovery-line consistency must hold;
* the job-outcome audit must report **zero** committed-stage re-executions;
* the killed node must have **resumed, not restarted**: the restore
  salvaged checkpointed progress, and the work re-executed after the
  restart is strictly less than the work the victim had done when killed.

Exit status is non-zero if any of those fail — this is the CI gate for the
checkpoint-as-a-service layer.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
from typing import Any, Dict, List, Optional

from repro.analysis import audit_jobs, check_c1_from_trace
from repro.app.state import AppProcess
from repro.app.traffic import JobTraffic
from repro.core import ProtocolConfig
from repro.errors import ConsistencyViolation
from repro.runtime.__main__ import parse_event
from repro.runtime.cluster import Cluster


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.app", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--nodes", type=int, default=4, help="cluster size (default 4)")
    parser.add_argument("--jobs", type=int, default=60, help="jobs to submit (default 60)")
    parser.add_argument("--window", type=float, default=20.0,
                        help="arrival window in time units (default 20)")
    parser.add_argument("--interval", type=float, default=6.0,
                        help="autonomous checkpoint interval (default 6)")
    parser.add_argument("--kill", default="1@18", metavar="PID@TIME",
                        help="kill a hosting node mid-run (default 1@18)")
    parser.add_argument("--restart", default="1@24", metavar="PID@TIME",
                        help="restart the killed node (default 1@24)")
    parser.add_argument("--no-kill", action="store_true",
                        help="failure-free control run (ignores --kill/--restart)")
    parser.add_argument("--time-scale", type=float, default=0.005,
                        help="real seconds per protocol time unit (default 0.005)")
    parser.add_argument("--seed", type=int, default=0, help="arrival/delay seed")
    parser.add_argument("--out", default=None,
                        help="storage + trace directory (default: a temp dir)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the summary as JSON")
    return parser


async def run_demo(args: argparse.Namespace, root: str) -> Dict[str, Any]:
    config = ProtocolConfig(
        checkpoint_interval=args.interval, failure_resilience=True
    )
    cluster = Cluster(
        n=args.nodes, root=root, seed=args.seed, transport="loopback",
        config=config, process_cls=AppProcess, time_scale=args.time_scale,
    )
    traffic = JobTraffic(
        jobs=args.jobs, rate=args.jobs / args.window,
        stages=(2, 2, 2), unit_time=0.25, retry=1.0, horizon=300.0,
    )
    driver = traffic.install(cluster.runtime, cluster.procs)

    victim: Optional[int] = None
    done_before_kill: Dict[str, int] = {}
    if not args.no_kill:
        victim, kill_at = parse_event(args.kill)
        restart_pid, restart_at = parse_event(args.restart)
        if restart_pid != victim:
            raise SystemExit("--restart must name the --kill victim")

        def sample() -> None:
            # What the victim had physically executed at the moment of the
            # kill — the yardstick for resumed-vs-restarted.
            done_before_kill["units"] = sum(
                h.units_executed for h in driver.handles.values()
                if h.spec.host == victim
            )

        cluster.runtime.scheduler.at(kill_at, sample, label="sample before kill")
        cluster.kill(victim, at=kill_at)
        cluster.restart(victim, at=restart_at)

    await cluster.start()
    await cluster.wait_until(
        lambda: all(h.durable for h in driver.handles.values()),
        timeout=600.0, what="every job to complete durably",
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

    resumed: Optional[bool] = None
    if victim is not None:
        resumed = (
            audit["units_salvaged"] > 0
            and metrics["units_reexecuted"] < done_before_kill.get("units", 0)
        )
    return {
        "nodes": args.nodes,
        "victim": victim,
        "jobs": metrics["jobs"],
        "jobs_done": metrics["jobs_done"],
        "jobs_durable": metrics["jobs_durable"],
        "units_needed": metrics["units_needed_done"],
        "units_executed": metrics["units_executed"],
        "units_reexecuted": metrics["units_reexecuted"],
        "units_salvaged": audit["units_salvaged"],
        "victim_units_at_kill": done_before_kill.get("units"),
        "latency_mean": metrics["latency_mean"],
        "goodput": metrics["goodput"],
        "committed_stage_reexecutions": audit["committed_stage_reexecutions"],
        "violations": audit["violations"],
        "recovery_line_consistent": c1,
        "resumed_not_restarted": resumed,
    }


def render(summary: Dict[str, Any]) -> str:
    victim = summary["victim"]
    lines = [
        f"app service: {summary['jobs']} jobs on {summary['nodes']} nodes"
        + (f", killed and restarted P{victim}" if victim is not None else
           " (failure-free control)"),
        f"  jobs done/durable      {summary['jobs_done']}/{summary['jobs_durable']}",
        f"  units needed           {summary['units_needed']}",
        f"  units executed         {summary['units_executed']} "
        f"(re-executed {summary['units_reexecuted']})",
        f"  units salvaged         {summary['units_salvaged']}",
        f"  mean latency           {summary['latency_mean']:.2f}"
        if summary["latency_mean"] is not None else "  mean latency           n/a",
        f"  goodput                {summary['goodput']:.2f} jobs/unit"
        if summary["goodput"] is not None else "  goodput                n/a",
        f"  committed-stage reruns {summary['committed_stage_reexecutions']}",
        f"  recovery line (C1)     {summary['recovery_line_consistent']}",
    ]
    if victim is not None:
        lines.append(
            f"  resumed not restarted  {summary['resumed_not_restarted']} "
            f"(re-executed {summary['units_reexecuted']} < "
            f"{summary['victim_units_at_kill']} done at kill, "
            f"salvaged {summary['units_salvaged']} > 0)"
        )
    return "\n".join(lines)


def verdict(summary: Dict[str, Any]) -> int:
    ok = (
        summary["jobs_durable"] == summary["jobs"]
        and summary["committed_stage_reexecutions"] == 0
        and summary["recovery_line_consistent"]
        and summary["resumed_not_restarted"] is not False
    )
    return 0 if ok else 1


def main(argv: List[str] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.out is not None:
        summary = asyncio.run(run_demo(args, args.out))
    else:
        with tempfile.TemporaryDirectory() as root:
            summary = asyncio.run(run_demo(args, root))
    print(render(summary))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        print(f"summary written to {args.json}")
    return verdict(summary)


if __name__ == "__main__":
    sys.exit(main())
