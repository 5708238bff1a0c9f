"""E-SCALE shards axis — scaling gates + ``BENCH_SCALE.json`` rows.

Records the sharded runtime's aggregate-throughput table and gates the
scaling claim **only where it can honestly hold**: shards cannot beat one
kernel on one visible CPU (the workers time-slice a single core and every
inter-shard hop is pure overhead), so the ≥2.5x at shards=4 gate applies
only on a ≥4-CPU runner with the full sweep.  Every row records the CPU
count it was measured under, so the artifact is interpretable either way.

The rows merge into ``BENCH_SCALE.json`` under the ``escale_shards`` key,
preserving whatever other experiments already recorded there.
"""

import json
import pathlib

from repro.bench.harness import format_table, print_experiment, rows_to_json
from repro.bench.shards import experiment_shards, quick_mode
from repro.runtime.shard import visible_cpus

ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_SCALE.json"


def merge_artifact(key, payload):
    data = {}
    if ARTIFACT.exists():
        data = json.loads(ARTIFACT.read_text())
    data[key] = payload
    ARTIFACT.write_text(json.dumps(data, indent=2) + "\n")


def test_sharded_runtime_scaling(run_once):
    rows = run_once(experiment_shards)
    print_experiment("E-SCALE shards", format_table(rows))

    assert rows, "shards rows missing"
    for row in rows:
        # Every burst fully drained and produced a finite, positive rate.
        assert row["env_s"] > 0
        assert row["last_delivery_ms"] > 0
        assert row["cpus"] >= 1
        # A single shard never crosses the wire; more shards always do.
        if row["shards"] == 1:
            assert row["inter_shard_frac"] == 0.0
        else:
            assert row["inter_shard_frac"] > 0.0

    cpus = visible_cpus()
    if cpus >= 4 and not quick_mode():
        # The scaling gate, only where parallelism physically exists.
        for n in sorted({row["n"] for row in rows}):
            base = next(r for r in rows if r["n"] == n and r["shards"] == 1)
            four = next(r for r in rows if r["n"] == n and r["shards"] == 4)
            speedup = four["env_s"] / base["env_s"]
            assert speedup >= 2.5, (
                f"shards=4 only {speedup:.2f}x over shards=1 at n={n} "
                f"on {cpus} CPUs"
            )

    merge_artifact(
        "escale_shards",
        {"title": "E-SCALE — sharded runtime scaling", "rows": rows_to_json(rows)},
    )
