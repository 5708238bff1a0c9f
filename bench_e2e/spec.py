"""The benchmark's contract: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``run.py --all --write``) and ``tests/test_e2e_spec.py`` checks the two
agree, so the names below are the single source of truth.  Imports nothing
from ``repro``: the orchestrator reads it before any program code loads.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

#: How long one driver run measures (``--seconds``), in seconds.
RUN_SECONDS = 25

COMMAND = ["python3", "bench_e2e/run.py"]
PATHS = ["bench_e2e"]

SIM_WORKLOADS = ("sim_msg", "sim_mixed")
LIVE_WORKLOADS = ("tcp_mixed", "shard_mixed")

WORKLOADS: List[Dict[str, str]] = [
    {
        "name": "sim_msg",
        "why": "message plane on the simulator: scheduler, net, normal-message path and "
               "trace emit work; storage and codec idle, so a change there must not move it",
    },
    {
        "name": "sim_mixed",
        "why": "canonical jobs+kills scenario on the simulator: control path, trees, 2PC, "
               "rollback and stable storage written per decision and read per restart",
    },
    {
        "name": "tcp_mixed",
        "why": "same traffic served live, open loop at a fixed rate: wire codec, TCP "
               "batching, file storage and JSONL traces work; latency exists only here",
    },
    {
        "name": "shard_mixed",
        "why": "same traffic on 2 worker processes: loopback path, one inter-shard link, "
               "pipes to the parent; guards runtime/shard.py, which tcp_mixed never runs",
    },
]

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

# name, unit, better.  Every workload reports every metric; a layer a
# workload does not run (wire on the simulator, spans inside shard
# workers) reports 0 and the README says which cells those are.
PER_LAYER: List[Tuple[str, str, str]] = [
    # engine + adapter
    ("core.handle_calls", "count", "lower"),
    ("core.handle_self_s", "s", "lower"),
    ("core.adapter_self_s", "s", "lower"),
    ("core.instances_started", "count", "higher"),
    ("core.instances_committed", "count", "higher"),
    ("core.commit_ratio", "ratio", "higher"),
    ("core.ctrl_per_commit", "count", "lower"),
    ("core.tree_size_mean", "count", "lower"),
    ("core.rollbacks", "count", "lower"),
    ("core.send_blocked_frac", "ratio", "lower"),
    ("core.commit_units_p50", "units", "lower"),
    ("core.commit_ms_p50", "ms", "lower"),
    ("core.commit_ms_p90", "ms", "lower"),
    ("core.recovery_ms_p50", "ms", "lower"),
    # simulator kernel + trace pipeline
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.scheduler_self_s", "s", "lower"),
    ("sim.trace_record_calls", "count", "lower"),
    ("sim.trace_emit_s", "s", "lower"),
    # network facade
    ("net.normal_sent", "count", "higher"),
    ("net.control_sent", "count", "lower"),
    ("net.delivered", "count", "higher"),
    ("net.dropped", "count", "lower"),
    ("net.spooled", "count", "lower"),
    ("net.send_self_s", "s", "lower"),
    ("net.deliver_self_s", "s", "lower"),
    # stable storage
    ("stable.put_calls", "count", "lower"),
    ("stable.put_s", "s", "lower"),
    ("stable.get_calls", "count", "lower"),
    ("stable.get_s", "s", "lower"),
    ("stable.flush_calls", "count", "lower"),
    ("stable.flush_s", "s", "lower"),
    ("stable.bytes_on_disk", "bytes", "lower"),
    # failure detector
    ("failure.detector_self_s", "s", "lower"),
    ("failure.kills", "count", "higher"),
    # wire codec
    ("wire.encode_calls", "count", "lower"),
    ("wire.encode_s", "s", "lower"),
    ("wire.decode_calls", "count", "lower"),
    ("wire.decode_s", "s", "lower"),
    ("wire.bytes_per_frame", "bytes", "lower"),
    # TCP transport
    ("transport.frames_sent", "count", "lower"),
    ("transport.batches_sent", "count", "lower"),
    ("transport.frames_per_batch", "ratio", "higher"),
    ("transport.bytes_sent", "bytes", "lower"),
    ("transport.send_self_s", "s", "lower"),
    ("transport.recv_self_s", "s", "lower"),
    # live event loop
    ("loop.cpu_util", "ratio", "lower"),
    ("loop.timers_fired", "count", "lower"),
    ("loop.pump_self_s", "s", "lower"),
    ("loop.probe_lag_ms_p99", "ms", "lower"),
    ("loop.unattributed_s", "s", "lower"),
    # sharded kernel
    ("shard.inter_shard_frac", "ratio", "lower"),
    ("shard.frames_sent", "count", "lower"),
    ("shard.misrouted", "count", "lower"),
    ("shard.worker_cpu_s_max", "s", "lower"),
    ("shard.worker_cpu_s_min", "s", "lower"),
    ("shard.pipe_rtt_ms_p50", "ms", "lower"),
    ("shard.spawn_s", "s", "lower"),
    # application layer
    ("app.jobs", "count", "higher"),
    ("app.jobs_durable", "count", "higher"),
    ("app.job_ms_p50", "ms", "lower"),
    ("app.job_durable_ms_p50", "ms", "lower"),
    ("app.job_durable_ms_p90", "ms", "lower"),
    ("app.units_executed", "count", "lower"),
    ("app.units_reexecuted", "count", "lower"),
    ("app.reexec_units_per_kill", "units", "lower"),
    ("app.resubmits", "count", "lower"),
    ("app.apply_self_s", "s", "lower"),
    ("app.driver_self_s", "s", "lower"),
    # offline analysis, outside every timed window
    ("analysis.trace_events", "count", "lower"),
    ("analysis.merge_s", "s", "lower"),
    ("analysis.check_s", "s", "lower"),
    # cost of the wrappers themselves
    ("trace_overhead_frac", "ratio", "lower"),
]

END_TO_END_UNITS = {name: unit for name, unit, _better, _bound in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _better in PER_LAYER}
BOUNDS = {name: bound for name, _unit, _better, bound in END_TO_END}

#: Counts that repeat exactly on the simulator: identical across reps of one
#: seed, and the ones a later change may quote as counts (never speed-ups).
EXACT_ON_SIM = (
    "sim.events",
    "sim.trace_record_calls",
    "net.normal_sent",
    "net.control_sent",
    "net.delivered",
    "core.instances_started",
    "core.instances_committed",
    "core.rollbacks",
)


def workload_names() -> List[str]:
    return [w["name"] for w in WORKLOADS]


def benchmark_json() -> Dict[str, Any]:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [dict(w) for w in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
