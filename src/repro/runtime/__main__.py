"""Demo CLI: boot a live cluster, stress it, verify consistency.

Usage::

    python -m repro.runtime                                  # 3-node TCP demo
    python -m repro.runtime --nodes 4 --transport loopback
    python -m repro.runtime --kill 1@8 --restart 1@18        # mid-run failure
    python -m repro.runtime --join 3@10 --leave 1@20:0       # grow + shrink
    python -m repro.runtime --duration 40 --time-scale 0.02 --out runs/live
    python -m repro.runtime --nodes 8 --shards 2             # multi-process

The run drives a Poisson peer workload with periodic autonomous checkpoints
and the Section 6 resilience machinery on, optionally killing and
restarting nodes mid-run.  ``--join``/``--leave`` exercise the membership
plane instead: a join provisions storage and an endpoint for a brand-new
pid and admits it as a full participant; a graceful leave hands the
departing node's checkpoint obligations to a successor and retires its
endpoint.  Afterwards the per-node JSONL traces are merged
into one :class:`~repro.analysis.index.TraceIndex` and the paper's C1
consistency definition is checked against the reconstructed recovery line —
the same oracle the simulated test suite uses, now applied to a live run.

With ``--shards K`` the same scenario runs on the multi-process
:class:`~repro.runtime.shard.ShardedCluster`: K worker kernels, pids placed
by consistent hashing, inter-shard traffic over wire-v2 TCP links — and the
identical C1 check on the merged per-shard traces.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Any, Dict, List, Tuple

from repro.analysis.consistency import check_c1_from_trace
from repro.core import ProtocolConfig
from repro.errors import ConsistencyViolation
from repro.runtime.cluster import Cluster
from repro.workloads import RandomPeerWorkload


def parse_event(spec: str, successor: bool = False) -> Tuple[Any, ...]:
    """Parse one ``PID@TIME`` argument (e.g. ``--kill 1@8``) into ``(pid, at)``
    or, with ``successor``, one ``PID@TIME[:SUCCESSOR]`` (``--leave 1@20:0``)
    into ``(pid, at, successor or None)`` — the arguments of a cluster verb."""
    pid_text, _, time_text = spec.partition("@")
    try:
        if not successor:
            return int(pid_text), float(time_text)
        time_text, sep, succ_text = time_text.partition(":")
        return int(pid_text), float(time_text), int(succ_text) if sep else None
    except ValueError:
        shape = "PID@TIME[:SUCCESSOR]" if successor else "PID@TIME"
        raise SystemExit(f"bad event spec {spec!r}; expected {shape}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--nodes", type=int, default=3, help="cluster size (default 3)")
    parser.add_argument(
        "--transport", choices=("tcp", "loopback"), default="tcp",
        help="message transport (default tcp; ignored with --shards)",
    )
    parser.add_argument(
        "--shards", type=int, default=0, metavar="K",
        help="run K worker processes (sharded runtime); 0 = single-process",
    )
    parser.add_argument("--duration", type=float, default=30.0,
                        help="run length in protocol time units (default 30)")
    parser.add_argument("--time-scale", type=float, default=0.02,
                        help="real seconds per protocol time unit (default 0.02)")
    parser.add_argument("--seed", type=int, default=0, help="workload/delay seed")
    parser.add_argument("--kill", action="append", default=[], metavar="PID@TIME",
                        help="kill a node mid-run (repeatable)")
    parser.add_argument("--restart", action="append", default=[], metavar="PID@TIME",
                        help="restart a killed node (repeatable)")
    parser.add_argument("--join", action="append", default=[], metavar="PID@TIME",
                        help="admit a brand-new node mid-run (repeatable)")
    parser.add_argument("--leave", action="append", default=[],
                        metavar="PID@TIME[:SUCCESSOR]",
                        help="gracefully retire a node mid-run, handing its "
                             "obligations to SUCCESSOR (repeatable)")
    parser.add_argument("--out", default="runs/live",
                        help="output directory for storage + traces (default runs/live)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the summary as JSON")
    return parser


def schedule_events(cluster: Any, args: argparse.Namespace) -> None:
    """Arm ``--kill/--restart/--join/--leave`` on either front door (both
    spell the four verbs identically)."""
    for pid, at in map(parse_event, args.kill):
        cluster.kill(pid, at=at)
    for pid, at in map(parse_event, args.restart):
        cluster.restart(pid, at=at)
    for pid, at in map(parse_event, args.join):
        cluster.join(pid, at=at)
    for spec in args.leave:
        pid, at, successor = parse_event(spec, successor=True)
        cluster.leave(pid, successor, at=at)


async def run_demo(args: argparse.Namespace) -> Dict[str, Any]:
    config = ProtocolConfig(
        checkpoint_interval=max(4.0, args.duration / 4),
        failure_resilience=True,
    )
    cluster = Cluster(
        n=args.nodes,
        root=args.out,
        seed=args.seed,
        transport=args.transport,
        config=config,
        time_scale=args.time_scale,
    )
    RandomPeerWorkload(
        message_rate=1.0, step_rate=0.5, duration=args.duration
    ).install(cluster.runtime, cluster.procs)
    schedule_events(cluster, args)

    await cluster.start()
    await cluster.run_for(args.duration)
    # Quiesce before the cut, so the recovery line the trace records is a
    # settled one, not a mid-commit snapshot.
    await cluster.quiesce()
    await cluster.shutdown()

    summary = cluster.summary()
    summary["transport"] = args.transport
    summary["trace_files"] = cluster.router.paths
    summary["joins"] = len(args.join)
    summary["leaves"] = len(args.leave)

    index = cluster.merged_index()
    summary["merged_events"] = index.events_indexed
    try:
        check_c1_from_trace(index, sorted(cluster.procs))
        summary["recovery_line_consistent"] = True
    except ConsistencyViolation as violation:
        summary["recovery_line_consistent"] = False
        summary["violation"] = str(violation)
    return summary


def run_sharded_demo(args: argparse.Namespace) -> Dict[str, Any]:
    """The demo scenario on the multi-process sharded runtime."""
    from repro.runtime.shard import ShardedCluster

    config = ProtocolConfig(
        checkpoint_interval=max(4.0, args.duration / 4),
        failure_resilience=True,
    )
    cluster = ShardedCluster(
        n=args.nodes,
        root=args.out,
        shards=args.shards,
        seed=args.seed,
        config=config,
        time_scale=args.time_scale,
        workload=dict(message_rate=1.0, step_rate=0.5, duration=args.duration),
    )
    try:
        schedule_events(cluster, args)
        cluster.start()
        cluster.run_for(args.duration)
        cluster.quiesce()  # drain open 2PC rounds before the cut
        cluster.run_for(2.0)
        cluster.shutdown()
    finally:
        cluster.close()

    summary = cluster.summary()
    summary["transport"] = f"wire-v2 tcp x{args.shards} shards"
    summary["trace_files"] = cluster.trace_paths()
    summary["joins"] = len(args.join)
    summary["leaves"] = len(args.leave)

    index = cluster.merged_index()
    summary["merged_events"] = index.events_indexed
    try:
        # Membership is derived from the trace itself (joiners appear,
        # graceful leavers are settled history), so no pid list here.
        check_c1_from_trace(index)
        summary["recovery_line_consistent"] = True
    except ConsistencyViolation as violation:
        summary["recovery_line_consistent"] = False
        summary["violation"] = str(violation)
    return summary


def render(summary: Dict[str, Any]) -> str:
    lines = [
        f"live cluster: {summary['nodes']} nodes over {summary['transport']}, "
        f"ran to t={summary['now']:.1f}",
        f"  normal sent    {summary['normal_sent']}",
        f"  control sent   {summary['control_sent']}",
        f"  delivered      {summary['delivered']}",
        f"  dropped        {summary['dropped']}",
        f"  spooled        {summary['spooled']}",
        f"  trace events   {summary['trace_events']} "
        f"(merged: {summary['merged_events']})",
        "  committed ckpts "
        + " ".join(f"P{pid}:{n}" for pid, n in sorted(summary["committed"].items())),
        f"  recovery line consistent (C1): {summary['recovery_line_consistent']}",
    ]
    if summary.get("joins") or summary.get("leaves"):
        lines.insert(
            -1,
            f"  membership     {summary['joins']} join(s), "
            f"{summary['leaves']} graceful leave(s)",
        )
    return "\n".join(lines)


def main(argv: List[str] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.shards:
        summary = run_sharded_demo(args)
    else:
        summary = asyncio.run(run_demo(args))
    print(render(summary))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        print(f"summary written to {args.json}")
    if summary.get("timer_errors"):
        return 1
    return 0 if summary["recovery_line_consistent"] else 1


if __name__ == "__main__":
    sys.exit(main())
