#!/usr/bin/env python3
"""A real networked cluster: the same protocol, now over TCP sockets.

Four checkpoint processes run on the live asyncio kernel, each with its own
on-disk stable storage and JSONL trace file, exchanging length-prefixed
JSON frames through per-node localhost servers.  Mid-run, one node is
killed for real — its server closes, peers' frames bounce to spoolers or
drops — and later restarts from its storage directory, rejoining via the
Section 6 recovery rules.  Afterwards the per-node traces are merged and
the paper's C1 consistency definition is checked against the live run.

Everything protocol-side is byte-identical to the simulator examples: only
the kernel under ``node.sim`` changed.

Run:  python examples/live_cluster.py
"""

import asyncio
import tempfile

from repro.analysis.consistency import check_c1_from_trace
from repro.core import ProtocolConfig
from repro.runtime import Cluster
from repro.workloads import RandomPeerWorkload

N = 4
DURATION = 24.0      # protocol time units
TIME_SCALE = 0.02    # real seconds per unit -> ~0.6 wall seconds of traffic


async def main_async(root: str) -> None:
    config = ProtocolConfig(failure_resilience=True, checkpoint_interval=8.0)
    cluster = Cluster(
        n=N,
        root=root,
        seed=7,
        transport="tcp",
        config=config,
        time_scale=TIME_SCALE,
    )
    RandomPeerWorkload(message_rate=1.0, duration=DURATION).install(
        cluster.runtime, cluster.procs
    )

    cluster.kill(2, at=7.0)
    cluster.restart(2, at=13.0)

    await cluster.start()
    print(f"cluster up: {N} nodes on ports {sorted(cluster.transport.ports.values())}")
    await cluster.run_for(DURATION)
    await cluster.run_for(6.0)  # settle: in-flight frames, decision propagation
    await cluster.shutdown()

    summary = cluster.summary()
    print(
        f"ran to t={summary['now']:.1f}: "
        f"{summary['normal_sent']} normal + {summary['control_sent']} control sent, "
        f"{summary['delivered']} delivered, {summary['dropped']} dropped, "
        f"{summary['spooled']} spooled"
    )
    print(
        "committed checkpoints:",
        " ".join(f"P{pid}:{n}" for pid, n in sorted(cluster.committed_counts().items())),
    )

    index = cluster.merged_index()
    check_c1_from_trace(index, sorted(cluster.procs))
    print(f"merged {index.events_indexed} trace events from {len(cluster.router.paths)} files")
    print("live-run consistency checks passed (C1 over the recovery line)")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="live-cluster-") as root:
        asyncio.run(main_async(root))


if __name__ == "__main__":
    main()
