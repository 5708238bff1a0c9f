"""E-SCALE ``shards`` axis — does adding worker kernels add throughput?

PR 4's hot-path pass made one kernel fast; this axis measures what the
sharded runtime buys *beyond* one kernel: aggregate envelopes/s with the
same protocol population partitioned over 1, 2, 4 and 8 worker OS
processes, at n ∈ {256, 1024} processes.

Drive pattern: every process hosts a closed-burst bench node that sends
``MESSAGES_PER_PID`` envelopes round-robin over the *global* population, so
the intra/inter-shard mix is fixed by the hash ring, not the drive.  The
measured window is the earliest send ``perf_counter`` stamp across shards
to the latest in-receiver delivery stamp — both ends recorded inside the
workers, no parent poll slack (``time.perf_counter`` is CLOCK_MONOTONIC on
Linux, comparable across processes on one machine).  One cluster is built
per configuration; a warm-up burst amortizes spawn/connect costs, then the
reported rate is the median over ``reps`` measured bursts.

Honesty: rows record the **visible CPU count**.  shards > cpus cannot
scale — the workers time-slice one core and the inter-shard wire hop is
pure overhead — so the scaling claim (aggregate throughput grows with
shards) is only meaningful, and only gated in CI, on a ≥4-CPU runner.

``ESCALE_QUICK=1`` shrinks the sweep to shards ∈ {1, 2} at n=64 with fewer
reps — the CI smoke-test shape.
"""

from __future__ import annotations

import os
import statistics
import tempfile
from typing import Any, Dict, List, Optional, Sequence

from repro.runtime.shard import ShardedCluster, visible_cpus

REPS = 5
QUICK_REPS = 3
TIME_SCALE = 0.005  # protocol-unit second := 5ms real; bursts finish fast
SHARD_COUNTS: Sequence[int] = (1, 2, 4, 8)
SIZES: Sequence[int] = (256, 1024)
QUICK_SHARD_COUNTS: Sequence[int] = (1, 2)
QUICK_SIZES: Sequence[int] = (64,)
MESSAGES_PER_PID = 4


def quick_mode() -> bool:
    """True when the reduced CI sweep was requested via ``ESCALE_QUICK``."""
    return os.environ.get("ESCALE_QUICK", "") not in ("", "0")


def shards_row(n: int, shards: int, reps: int) -> Dict[str, Any]:
    """Aggregate throughput for ``n`` processes over ``shards`` kernels."""
    with tempfile.TemporaryDirectory() as root:
        cluster = ShardedCluster(
            n=n, root=root, shards=shards, seed=0, bench=True,
            time_scale=TIME_SCALE, detector_latency=None, spoolers=False,
            delay=0.0,
        )
        try:
            cluster.start()
            expected = 0
            rates: List[float] = []
            latencies: List[float] = []
            for rep in range(reps + 1):  # rep 0 is the warm-up
                t_first = cluster.burst(MESSAGES_PER_PID)
                expected += n * MESSAGES_PER_PID
                t_last = cluster.wait_drained(expected, timeout=600.0)
                if rep == 0:
                    continue
                wall = max(t_last - t_first, 1e-9)
                rates.append(n * MESSAGES_PER_PID / wall)
                latencies.append(wall)
            summary = cluster.summary()
            cluster.shutdown()
        finally:
            cluster.close()
    total = summary["frames_sent"] + summary["intra_delivered"]
    return {
        "metric": "shards",
        "n": n,
        "shards": shards,
        "cpus": visible_cpus(),
        "env_s": round(statistics.median(rates)),
        "last_delivery_ms": round(statistics.median(latencies) * 1000, 2),
        "inter_shard_frac": round(summary["frames_sent"] / max(total, 1), 3),
        "messages_per_pid": MESSAGES_PER_PID,
    }


def experiment_shards(
    sizes: Optional[Sequence[int]] = None,
    shard_counts: Optional[Sequence[int]] = None,
    reps: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """The E-SCALE shards table (see EXPERIMENTS.md)."""
    if sizes is None:
        sizes = QUICK_SIZES if quick_mode() else SIZES
    if shard_counts is None:
        shard_counts = QUICK_SHARD_COUNTS if quick_mode() else SHARD_COUNTS
    if reps is None:
        reps = QUICK_REPS if quick_mode() else REPS
    rows: List[Dict[str, Any]] = []
    for n in sizes:
        for shards in shard_counts:
            rows.append(shards_row(n, shards, reps))
    return rows
