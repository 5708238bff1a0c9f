"""The four workloads: fixed parameters, one measured run each, the gate.

Everything in this module runs in a *child* process that ``run.py`` starts
for each rep, so every rep sees a fresh heap (a simulator rep in a warm
process ran 10-20% slower than the same rep in a new one) and pays, and
therefore measures, the whole set-up: native build check, imports, building
the kernel and installing the workload.

All workload parameters are constants here.  The program sees only inputs
generated from ``--seed`` (the kernels' seeded RNG streams draw every
arrival, peer choice and delay), and nothing in ``src/`` can tell which
workload is running.
"""

from __future__ import annotations

import asyncio
import gc
import os
import resource
import shutil
import time
import types
from typing import Any, Dict, List, Optional, Tuple

from bench_e2e import derive, spans, spec

# One protocol time unit is this many real seconds on the live kernels, and
# the nominal scale for reporting the simulator's unit latencies in ms.
TIME_SCALE = 0.1
# Injected per-hop delay on the live kernels, in units (10 ms).
LIVE_DELAY = 0.1
# Downtime of a killed node (sim_mixed), in units.
DOWNTIME = 6.0

# The driver runs ten different seeds and wants them to agree, so a seed may
# move arrival times but not the amount of work:
# * sim_msg's checkpoint initiations come at fixed times on rotating
#   processes, as many as the ISSUE's Poisson rate (0.005 per process per
#   unit) gives on average.  One instance costs ~1900 control messages there;
#   a Poisson count of them swung the work per seed by +-10%.
# * sim_mixed drops the ISSUE's transient errors (error_rate=0.005): each
#   starts a rollback cascade whose size is chaotic in the seed (43k-62k
#   events per rep).
# * sim_mixed kills late, after the job load has drained.  Kills at t=18/21.5,
#   in the middle of the load, made a rep bimodal (2.3 s or 4.2 s, a quarter
#   of the seeds in the low mode); late ones still drive 25-50 rollbacks per
#   rep through recovery while events per rep stay within +-3%.
SIM_MSG = dict(n=32, message_rate=20.0, step_rate=0.5, checkpoints=6,
               duration=40.0, until=50.0)
SIM_MIXED = dict(n=24, interval=8.0, message_rate=1.0, step_rate=0.5,
                 duration=60.0, jobs=600, job_rate=20.0, horizon=80.0,
                 kills=((1, 56.0), (2, 63.0)), quiesce_at=72.0, until=85.0)
# One live rep is 32 units (3.2 s) of message traffic.  Short, because the
# minimum over five short reps resists the host's slow streaks better than
# over two long ones.  Jobs arrive during the first 80% of it, so that a
# cluster that keeps up has every job durable by the end and wall_s grows only
# when a backlog does (with arrivals up to the end, the wait for the next
# autonomous checkpoint made wall_s bimodal in the seed).
#
# Live reps run fault-free.  The ISSUE's schedule (kill P1, then P2 7 units
# later, restart each after 6) is left out because the program does not
# survive it reliably: in 3 of 8 shard_mixed and 1 of 10 tcp_mixed prototype
# runs some participant rounds never closed after the restart (quiesce()
# timed out), and one shard run re-executed a committed stage.  A ruler that
# fails one run in five measures nothing; kills stay on sim_mixed, where a
# seed either passes or fails for good.
LIVE = dict(n=16, interval=8.0, message_rate=1.0, step_rate=0.5, job_rate=1200 / 195,
            units=32.0, job_window=0.8)
# A simulator rep is timed in this many equal slices of simulated time (most
# are empty or a few ms of host time, the busiest ~150 ms).  The shared host
# slows this memory-heavy run in bursts shorter than a rep: whole reps of one
# seed read 3.2-4.8 s within minutes, and the fastest of four by 15%, while
# the sum over slices of each slice's fastest rep moved by 7% on the same reps.
SIM_SLICES = 1000
JOB_SHAPE = dict(stages=(2, 2, 2), unit_time=0.25, retry=1.0)


# ----------------------------------------------------------------------
# Process accounting
# ----------------------------------------------------------------------

def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    """High-water resident set of ``pid`` (``VmHWM``) in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(root: str, prefix: str) -> int:
    """Bytes of regular files under directories named ``prefix*`` in ``root``."""
    total = 0
    for base, _dirs, files in os.walk(root):
        if any(part.startswith(prefix) for part in os.path.relpath(base, root).split(os.sep)):
            total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


# ----------------------------------------------------------------------
# Set-up shared by the children
# ----------------------------------------------------------------------

def ensure_native() -> Dict[str, str]:
    """Build the C extensions when missing or older than their source.

    The driver's checkout ships no ``.so`` (they are git-ignored), so the
    first child there compiles; every later child only stats four files.
    Without a toolchain the build reports ``skipped`` and the run proceeds
    interpreted — the fingerprint says which.
    """
    from repro._native import EXTENSIONS
    from repro._native import build as native_build

    outcome: Dict[str, str] = {}
    stale = []
    for name in EXTENSIONS:
        artifact, source = native_build.artifact_path(name), native_build.source_path(name)
        if os.path.exists(artifact) and os.path.getmtime(artifact) >= os.path.getmtime(source):
            outcome[name] = "up-to-date"
        else:
            stale.append(name)
    if stale:
        for name, row in native_build.build(stale).items():
            outcome[name] = row["outcome"]
    return outcome


def native_backends() -> Dict[str, str]:
    import repro.runtime.wire  # noqa: F401  (importing wires and probes the codec)
    import repro.stable.snapshot  # noqa: F401
    from repro._native import status

    return {name: row["backend"] for name, row in status().items()}


def prepare(
    trace: bool = False, clock: Any = time.perf_counter
) -> Tuple[Dict[str, Any], Optional[spans.SpanRecorder]]:
    """What every rep does first: native build check, imports and, for a
    traced rep, the wrappers (which must precede building the kernel)."""
    build_info = {"native_build": ensure_native(), "backends": native_backends()}
    recorder = None
    if trace:
        recorder = spans.SpanRecorder(clock=clock)
        spans.install(recorder)
    return build_info, recorder


def protocol_config(interval: Optional[float]) -> Any:
    from repro.core import ProtocolConfig

    return ProtocolConfig(checkpoint_interval=interval, failure_resilience=True)


def live_plan() -> Dict[str, Any]:
    """The scenario both live kernels run."""
    units = LIVE["units"]
    return {
        "units": units,
        "config": protocol_config(LIVE["interval"]),
        "workload": dict(message_rate=LIVE["message_rate"], step_rate=LIVE["step_rate"],
                         duration=units),
        "app": dict(jobs=int(LIVE["job_rate"] * (LIVE["job_window"] * units - 1.0)),
                    rate=LIVE["job_rate"], horizon=units + 40.0, **JOB_SHAPE),
        "kills": [],
        "steady": (0.0, units),
        "latency_cutoff": units,
    }


# ----------------------------------------------------------------------
# Builders: everything up to just before run()/start()
# ----------------------------------------------------------------------

def build_sim_msg(seed: int) -> Dict[str, Any]:
    from repro.core import CheckpointProcess
    from repro.testing import build_sim
    from repro.workloads import RandomPeerWorkload

    p = SIM_MSG
    sim, procs = build_sim(
        n=p["n"], seed=seed, cls=CheckpointProcess, config=protocol_config(None),
        detector_latency=1.0, spoolers=True,
    )
    RandomPeerWorkload(
        message_rate=p["message_rate"], step_rate=p["step_rate"], duration=p["duration"],
    ).install(sim, procs)
    for k in range(p["checkpoints"]):  # mid-points of equal slices, a fixed stride apart
        at, pid = (k + 0.5) * p["duration"] / p["checkpoints"], (5 * k + 3) % p["n"]
        sim.scheduler.at(at, procs[pid].initiate_checkpoint, label=f"bench ckpt P{pid}")
    return {"sim": sim, "procs": procs, "traffic": None, "until": p["until"],
            "kills": [], "steady": (0.0, p["until"]), "latency_cutoff": p["until"]}


def build_sim_mixed(seed: int) -> Dict[str, Any]:
    from repro.app.state import AppProcess
    from repro.app.traffic import JobTraffic
    from repro.testing import build_sim
    from repro.workloads import RandomPeerWorkload

    p = SIM_MIXED
    sim, procs = build_sim(
        n=p["n"], seed=seed, cls=AppProcess, config=protocol_config(p["interval"]),
        detector_latency=1.0, spoolers=True,
    )
    RandomPeerWorkload(
        message_rate=p["message_rate"], step_rate=p["step_rate"], duration=p["duration"],
    ).install(sim, procs)
    traffic = JobTraffic(jobs=p["jobs"], rate=p["job_rate"], horizon=p["horizon"], **JOB_SHAPE)
    traffic.install(sim, procs)
    for pid, at in p["kills"]:
        sim.scheduler.at(at, lambda pid=pid: sim.crash(pid), label=f"kill P{pid}")
        sim.scheduler.at(at + DOWNTIME, lambda pid=pid: sim.recover(pid), label=f"restart P{pid}")

    # The simulator's analogue of Cluster.quiesce(): stop autonomous
    # initiation early enough that no tree is cut mid-2PC by the horizon,
    # which the C1 oracle would read as a violation.
    def stop_autonomous() -> None:
        for proc in procs.values():
            proc.engine.autonomous_checkpoints = False

    sim.scheduler.at(p["quiesce_at"], stop_autonomous, label="bench quiesce")
    first_kill = min(at for _pid, at in p["kills"])
    return {"sim": sim, "procs": procs, "traffic": traffic, "until": p["until"],
            "kills": list(p["kills"]), "steady": (0.0, first_kill),
            "latency_cutoff": first_kill}


def build_tcp(seed: int, root: str) -> Dict[str, Any]:
    from repro.app.state import AppProcess
    from repro.app.traffic import JobTraffic
    from repro.net.delay import FixedDelay
    from repro.runtime.cluster import Cluster
    from repro.sim.trace import InMemorySink
    from repro.workloads import RandomPeerWorkload

    plan = live_plan()
    memory = InMemorySink()
    cluster = Cluster(
        n=LIVE["n"], root=root, seed=seed, transport="tcp", codec="binary",
        process_cls=AppProcess, config=plan["config"], time_scale=TIME_SCALE,
        delay_model=FixedDelay(LIVE_DELAY), detector_latency=1.0, spoolers=True,
        extra_sinks=[memory],
    )
    RandomPeerWorkload(**plan["workload"]).install(cluster.runtime, cluster.procs)
    traffic = JobTraffic(**plan["app"])
    traffic.install(cluster.runtime, cluster.procs)
    # Open-loop honesty probe: one benchmark-owned timer per unit records
    # how late the kernel fired it, i.e. how late the generator ran.
    lags: List[float] = []
    scheduler = cluster.runtime.scheduler
    for k in range(1, int(plan["units"])):
        scheduler.at(float(k), lambda k=k: lags.append(scheduler.now - k), label="bench probe")
    return {"cluster": cluster, "traffic": traffic, "memory": memory, "lags": lags, **plan}


def build_shard(seed: int, root: str) -> Dict[str, Any]:
    from repro.runtime.shard import ShardedCluster

    plan = live_plan()
    t0 = time.perf_counter()
    cluster = ShardedCluster(
        n=LIVE["n"], root=root, shards=2, seed=seed, config=plan["config"],
        time_scale=TIME_SCALE, detector_latency=1.0, spoolers=True, delay=LIVE_DELAY,
        workload=plan["workload"], app=plan["app"],
    )
    spawn_s = time.perf_counter() - t0
    return {"cluster": cluster, "spawn_s": spawn_s, **plan}


# ----------------------------------------------------------------------
# The correctness gate
# ----------------------------------------------------------------------

def gate_trace(index: Any, pids: List[int]) -> List[str]:
    """C1 on the recovery line and the job audit, from the trace alone."""
    from repro.analysis import audit_jobs, check_c1_from_trace
    from repro.errors import ConsistencyViolation

    failures: List[str] = []
    try:
        check_c1_from_trace(index, pids)
    except ConsistencyViolation as exc:
        failures.append(f"C1 violated: {exc}")
    audit = audit_jobs(index)
    if audit["committed_stage_reexecutions"] != 0:
        failures.append(
            f"{audit['committed_stage_reexecutions']} committed stage(s) re-executed: "
            f"{audit['violations'][:3]}"
        )
    return failures


def gate_jobs(specs: List[Any], fingerprints: Dict[str, Any], durable: int) -> List[str]:
    """Every job durable and bit-equal to a never-interrupted control."""
    from repro.app.state import completed_record

    failures: List[str] = []
    if durable != len(specs):
        failures.append(f"{len(specs) - durable} of {len(specs)} job(s) not durable")
    wrong = [
        s.job for s in specs
        if tuple(fingerprints.get(s.job, ())) != (True, completed_record(s.job, s.stages)["digest"])
    ]
    if wrong:
        failures.append(f"{len(wrong)} job record(s) differ from the control, e.g. {wrong[:3]}")
    return failures


def open_instances(procs: Dict[int, Any]) -> int:
    return sum(
        sum(1 for s in p.engine.trees.all_chkpt_rounds() if not s.closed)
        + sum(1 for s in p.engine.trees.roll.values() if not s.closed)
        for p in procs.values()
    )


# ----------------------------------------------------------------------
# Layer metrics every kernel derives the same way from its trace
# ----------------------------------------------------------------------

def trace_metrics(
    events: List[Any], net: Dict[str, int], n: int, horizon: float,
    steady: Tuple[float, float], latency_cutoff: float, kills: int,
) -> Dict[str, float]:
    to_ms = TIME_SCALE * 1000.0
    counts = derive.instance_counts(events)
    commits = derive.instance_latencies(events, steady)
    recoveries = derive.recovery_latencies(events)
    sizes = derive.tree_sizes(events)
    jobs = derive.job_latencies(events, latency_cutoff)
    reexec = derive.reexecuted_units(events)
    units = sum(1 for ev in events if ev.kind == derive.K_JOB_UNIT)
    committed = counts["committed"]
    return {
        "core.instances_started": counts["started"],
        "core.instances_committed": committed,
        "core.commit_ratio": committed / counts["started"] if counts["started"] else 0.0,
        "core.ctrl_per_commit": net["control_sent"] / committed if committed else 0.0,
        "core.tree_size_mean": sum(sizes) / len(sizes) if sizes else 0.0,
        "core.rollbacks": counts["rollbacks"],
        "core.send_blocked_frac": derive.send_blocked_fraction(events, n, horizon),
        "core.commit_units_p50": derive.percentile(commits, 0.5),
        "core.commit_ms_p50": derive.percentile(commits, 0.5) * to_ms,
        "core.commit_ms_p90": derive.percentile(commits, 0.9) * to_ms,
        "core.recovery_ms_p50": derive.percentile(recoveries, 0.5) * to_ms,
        "net.normal_sent": net["normal_sent"],
        "net.control_sent": net["control_sent"],
        "net.delivered": net["delivered"],
        "net.dropped": net["dropped"],
        "net.spooled": net["spooled"],
        "failure.kills": kills,
        "app.job_ms_p50": derive.percentile(jobs["done"], 0.5) * to_ms,
        "app.job_durable_ms_p50": derive.percentile(jobs["durable"], 0.5) * to_ms,
        "app.job_durable_ms_p90": derive.percentile(jobs["durable"], 0.9) * to_ms,
        "app.units_executed": units,
        "app.units_reexecuted": reexec,
        "app.reexec_units_per_kill": reexec / kills if kills else 0.0,
        "analysis.trace_events": len(events),
        "samples.commits": len(commits),
        "samples.jobs": len(jobs["durable"]),
        "samples.recoveries": len(recoveries),
    }


def net_counters(net: Any) -> Dict[str, int]:
    return {key: getattr(net, key) for key in
            ("normal_sent", "control_sent", "delivered", "dropped", "spooled")}


def span_metrics(
    recorder: spans.SpanRecorder, window: Tuple[int, int], budget_s: float
) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
    """Self-time layer metrics of the spans opened inside the timed window.

    ``budget_s`` is the length of the window on the recorder's own clock
    (wall on the simulator, loop-thread CPU live): what the self times
    would add up to if every instruction ran inside some span.
    """
    rows = recorder.self_times(*window)

    def self_s(*names: str) -> float:
        return sum(rows.get(name, {}).get("self_s", 0.0) for name in names)

    def calls(*names: str) -> int:
        return int(sum(rows.get(name, {}).get("calls", 0) for name in names))

    attributed = sum(row["self_s"] for row in rows.values())
    return {
        "core.handle_calls": calls("core.handle"),
        "core.handle_self_s": self_s("core.handle"),
        "core.adapter_self_s": self_s("core.adapter", "core.effects"),
        "sim.scheduler_self_s": self_s("sim.scheduler"),
        "sim.trace_record_calls": calls("sim.trace_emit"),
        "sim.trace_emit_s": self_s("sim.trace_emit"),
        "net.send_self_s": self_s("net.send"),
        "net.deliver_self_s": self_s("net.deliver"),
        "stable.put_calls": calls("stable.put"),
        "stable.put_s": self_s("stable.put"),
        "stable.get_calls": calls("stable.get"),
        "stable.get_s": self_s("stable.get"),
        "stable.flush_calls": calls("stable.flush"),
        "stable.flush_s": self_s("stable.flush"),
        "failure.detector_self_s": self_s("failure.detector"),
        "wire.encode_calls": calls("wire.encode"),
        "wire.encode_s": self_s("wire.encode"),
        "wire.decode_calls": calls("wire.decode"),
        "wire.decode_s": self_s("wire.decode"),
        "transport.send_self_s": self_s("transport.send"),
        "transport.recv_self_s": self_s("transport.recv"),
        "loop.pump_self_s": self_s("loop.pump"),
        "app.apply_self_s": self_s("app.apply"),
        "app.driver_self_s": self_s("app.driver"),
        "loop.unattributed_s": budget_s - attributed,
    }, rows


_ALWAYS = {"core.handle", "core.adapter", "core.effects", "sim.trace_emit", "net.send",
           "net.deliver", "stable.put", "failure.detector"}
_APP = {"app.apply", "app.driver"}
_LIVE_ONLY = {"wire.encode", "wire.decode", "transport.send", "transport.recv", "loop.pump",
              "stable.flush"}
#: Boundaries each traced workload must hit at least once / never.
EXPECTED_SPANS = {
    "sim_msg": (_ALWAYS | {"sim.scheduler"}, _LIVE_ONLY | _APP),
    "sim_mixed": (_ALWAYS | _APP | {"sim.scheduler", "stable.get"}, _LIVE_ONLY),
    "tcp_mixed": (_ALWAYS | _APP | _LIVE_ONLY | {"stable.get"}, {"sim.scheduler"}),
}


def check_spans(
    workload: str, rows: Dict[str, Dict[str, float]], budget_s: float,
    unattributed_s: float, exact: Dict[str, int],
) -> List[str]:
    """Span-coverage self-check of a traced run.

    ``exact`` maps a span name to the program's own counter for the same
    boundary; a wrapper bypassed by a ``from x import f`` alias, or by
    ``repro._native`` rebinding a public name, shows up as a shortfall.
    """
    failures: List[str] = []
    hit, never = EXPECTED_SPANS[workload]
    for name in sorted(hit):
        if rows.get(name, {}).get("calls", 0) < 1:
            failures.append(f"span {name} was never opened on {workload}")
    for name in sorted(never):
        if rows.get(name, {}).get("calls", 0) != 0:
            failures.append(f"span {name} opened {rows[name]['calls']}x on {workload}, expected 0")
    for name, expected in sorted(exact.items()):
        seen = int(rows.get(name, {}).get("calls", 0))
        if seen != expected:
            failures.append(f"span {name} opened {seen}x but the program counted {expected}")
    if unattributed_s < -1e-6:
        failures.append(f"self times exceed the window by {-unattributed_s:.6f}s")
    if workload in spec.SIM_WORKLOADS and unattributed_s > 0.25 * budget_s:
        failures.append(
            f"unattributed {unattributed_s:.3f}s exceeds 25% of the {budget_s:.3f}s window "
            f"on {workload}"
        )
    return failures


# ----------------------------------------------------------------------
# Measured runs
# ----------------------------------------------------------------------

def run_sim(workload: str, seed: int, trace: bool, started: float,
            spans_out: Optional[str]) -> Dict[str, Any]:
    """One rep of a simulator workload, set-up included."""
    build_info, recorder = prepare(trace)
    built = (build_sim_msg if workload == "sim_msg" else build_sim_mixed)(seed)
    sim, procs, traffic = built["sim"], built["procs"], built["traffic"]
    gc.collect()
    setup_s = time.perf_counter() - started

    recorded0 = sim.trace.events_recorded
    sent0 = sim.network.normal_sent + sim.network.control_sent
    lo = recorder.mark() if recorder is not None else 0
    # Run to the horizon in slices of simulated time, each timed on its own.
    # A slice is the same work in every rep of a seed, so run.py can take
    # each slice from the rep that ran it least disturbed.
    walls: List[float] = []
    cpus: List[float] = []
    for k in range(1, SIM_SLICES + 1):
        cpu0, t0 = time.process_time(), time.perf_counter()
        sim.run(until=built["until"] * k / SIM_SLICES)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - cpu0)
    wall_s, cpu_s = sum(walls), sum(cpus)
    hi = recorder.mark() if recorder is not None else 0
    peak_rss_mb = self_peak_rss_mb()

    t0 = time.perf_counter()
    failures = gate_trace(sim.trace.index, sorted(procs))
    if open_instances(procs) != 0:
        failures.append(f"{open_instances(procs)} instance(s) still open at the horizon")
    attempted = failed = 0
    layers: Dict[str, float] = {}
    if traffic is not None:
        rolled = traffic.metrics()
        failures += gate_jobs(traffic.specs, traffic.fingerprints(), rolled["jobs_durable"])
        attempted, failed = rolled["jobs"], rolled["jobs"] - rolled["jobs_durable"]
        layers.update({"app.jobs": rolled["jobs"], "app.jobs_durable": rolled["jobs_durable"],
                       "app.resubmits": rolled["resubmits"]})
    check_s = time.perf_counter() - t0

    events = sim.trace.events
    net = net_counters(sim.network)
    layers.update(trace_metrics(
        events, net, len(procs), built["until"], built["steady"],
        built["latency_cutoff"], len(built["kills"]),
    ))
    if traffic is None:
        attempted = layers["core.instances_started"]
        failed = attempted - layers["core.instances_committed"]
    layers.update({
        "sim.events": sim.scheduler.events_processed,
        "sim.events_per_s": sim.scheduler.events_processed / wall_s,
        "sim.trace_record_calls": sim.trace.events_recorded,
        "loop.cpu_util": cpu_s / wall_s,
        "analysis.check_s": check_s,
    })
    if recorder is not None:
        measured, rows = span_metrics(recorder, (lo, hi), wall_s)
        layers.update(measured)
        failures += check_spans(
            workload, rows, wall_s, measured["loop.unattributed_s"],
            {"sim.trace_emit": sim.trace.events_recorded - recorded0,
             "net.send": net["normal_sent"] + net["control_sent"] - sent0},
        )
        if spans_out:
            recorder.dump(spans_out)
    return {
        "workload": workload, "seed": seed, "traced": trace, "failures": failures,
        "attempted": attempted, "failed": failed,
        "end_to_end": {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
                       "peak_rss_mb": peak_rss_mb},
        "slices": {"wall_s": walls, "cpu_s": cpus},
        "layers": layers, **build_info,
    }


async def _drive_tcp(built: Dict[str, Any], recorder: Optional[spans.SpanRecorder]) -> Dict[str, Any]:
    cluster, traffic = built["cluster"], built["traffic"]
    handles = traffic.driver.handles
    lo = recorder.mark() if recorder is not None else 0
    cpu0, thread0, t0 = time.process_time(), time.thread_time(), time.perf_counter()
    await cluster.start()
    await cluster.run_for(built["units"])
    await cluster.wait_until(
        lambda: all(h.durable for h in handles.values()),
        timeout=400.0, what="every job to complete durably",
    )
    await cluster.quiesce()
    wall_s, cpu_s = time.perf_counter() - t0, time.process_time() - cpu0
    loop_cpu_s = time.thread_time() - thread0
    hi = recorder.mark() if recorder is not None else 0
    peak_rss_mb = self_peak_rss_mb()
    still_open = cluster.open_instances()
    frames_received = cluster.transport.frames_received
    await cluster.shutdown(raise_errors=False)
    return {"wall_s": wall_s, "cpu_s": cpu_s, "loop_cpu_s": loop_cpu_s,
            "peak_rss_mb": peak_rss_mb, "window": (lo, hi), "open_instances": still_open,
            "frames_received": frames_received}


def run_tcp(seed: int, trace: bool, started: float, root: str,
            spans_out: Optional[str]) -> Dict[str, Any]:
    # CPU clock of the loop thread: the live budget is cpu_s (wall_s is set
    # by the schedule), and a layer blocked on disk must not read as busy.
    build_info, recorder = prepare(trace, clock=time.thread_time)
    built = build_tcp(seed, root)
    cluster, traffic = built["cluster"], built["traffic"]
    gc.collect()
    setup_s = time.perf_counter() - started

    ran = asyncio.run(_drive_tcp(built, recorder))
    wall_s, cpu_s = ran["wall_s"], ran["cpu_s"]

    t0 = time.perf_counter()
    index = cluster.merged_index()
    merge_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    failures = gate_trace(index, sorted(cluster.procs))
    rolled = traffic.metrics()
    failures += gate_jobs(traffic.specs, traffic.fingerprints(), rolled["jobs_durable"])
    summary = cluster.summary()
    if summary["timer_errors"]:
        failures.append(
            f"{summary['timer_errors']} timer error(s): {cluster.runtime.scheduler.errors[:2]}"
        )
    if ran["open_instances"]:
        failures.append(f"{ran['open_instances']} instance(s) open after quiesce")
    if index.events_indexed != len(built["memory"].events) or index.truncated_lines:
        failures.append(
            f"JSONL trace holds {index.events_indexed} events, memory {len(built['memory'].events)}"
        )
    check_s = time.perf_counter() - t0

    events = index.by_kind(*index.kinds())
    net = net_counters(cluster.runtime.network)
    layers = trace_metrics(
        events, net, LIVE["n"], built["units"], built["steady"],
        built["latency_cutoff"], len(built["kills"]),
    )
    frames, batches = summary["frames_sent"], summary["batches_sent"]
    lags_ms = [lag * TIME_SCALE * 1000.0 for lag in built["lags"]]
    layers.update({
        "app.jobs": rolled["jobs"], "app.jobs_durable": rolled["jobs_durable"],
        "app.resubmits": rolled["resubmits"],
        "transport.frames_sent": frames, "transport.batches_sent": batches,
        "transport.frames_per_batch": frames / batches if batches else 0.0,
        "transport.bytes_sent": summary["bytes_sent"],
        "wire.bytes_per_frame": summary["bytes_sent"] / frames if frames else 0.0,
        "stable.bytes_on_disk": dir_bytes(cluster.root, "node-"),
        "loop.cpu_util": cpu_s / wall_s,
        "loop.timers_fired": cluster.runtime.scheduler.timers_fired,
        "loop.probe_lag_ms_p99": derive.percentile(lags_ms, 0.99),
        "analysis.merge_s": merge_s, "analysis.check_s": check_s,
        "samples.probes": len(lags_ms),
    })
    warnings = []
    if layers["loop.probe_lag_ms_p99"] >= TIME_SCALE * 1000.0:
        warnings.append(
            f"open-loop rate not sustained: probe lag p99 {layers['loop.probe_lag_ms_p99']:.1f} ms "
            "is a whole unit or more, so this run's latency metrics are void"
        )
    if recorder is not None:
        measured, rows = span_metrics(recorder, ran["window"], ran["loop_cpu_s"])
        layers.update(measured)
        failures += check_spans(
            "tcp_mixed", rows, ran["loop_cpu_s"], measured["loop.unattributed_s"],
            {"wire.decode": ran["frames_received"]},
        )
        if spans_out:
            recorder.dump(spans_out)
    return {
        "workload": "tcp_mixed", "seed": seed, "traced": trace, "failures": failures,
        "warnings": warnings,
        "attempted": rolled["jobs"], "failed": rolled["jobs"] - rolled["jobs_durable"],
        "end_to_end": {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
                       "peak_rss_mb": ran["peak_rss_mb"]},
        "layers": layers, **build_info,
    }


def run_shard(seed: int, started: float, root: str) -> Dict[str, Any]:
    import multiprocessing

    build_info, _no_recorder = prepare()
    built = build_shard(seed, root)
    cluster = built["cluster"]
    try:
        gc.collect()
        setup_s = time.perf_counter() - started
        workers = [child.pid for child in multiprocessing.active_children()]

        worker_cpu0 = [proc_cpu_s(pid) for pid in workers]
        cpu0, t0 = time.process_time(), time.perf_counter()
        cluster.start()
        cluster.run_for(built["units"])
        cluster.wait_until_jobs_durable(timeout=400.0)
        cluster.quiesce()
        wall_s = time.perf_counter() - t0
        worker_cpu = [proc_cpu_s(pid) - before for pid, before in zip(workers, worker_cpu0)]
        cpu_s = time.process_time() - cpu0 + sum(worker_cpu)
        peak_rss_mb = self_peak_rss_mb() + sum(proc_peak_rss_mb(pid) for pid in workers)

        rtts = []
        for _ in range(5):
            t0 = time.perf_counter()
            cluster.committed_counts()  # one poll round trip per worker
            rtts.append((time.perf_counter() - t0) / cluster.shards * 1000.0)
        status = cluster.app_status()
        cluster.shutdown()
    finally:
        cluster.close()

    t0 = time.perf_counter()
    index = cluster.merged_index()
    merge_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    failures = gate_trace(index, list(range(LIVE["n"])))
    from repro.app.traffic import JobTraffic
    from repro.sim.rng import Rng

    # The arrival plan is a pure function of (seed, parameters); replaying
    # it here gives the job list the workers derived for themselves.
    specs = JobTraffic(**built["app"]).plan(
        types.SimpleNamespace(rng=Rng(seed)), list(range(LIVE["n"]))
    )
    failures += gate_jobs(specs, status["fingerprints"], status["jobs_durable"])
    summary = cluster.summary()
    if summary["timer_errors"]:
        failures.append(f"{summary['timer_errors']} timer error(s) in the workers")
    if summary["misrouted"]:
        failures.append(f"{summary['misrouted']} misrouted frame(s)")
    if index.truncated_lines:
        failures.append(f"{index.truncated_lines} truncated trace line(s)")
    check_s = time.perf_counter() - t0

    events = index.by_kind(*index.kinds())
    net = {key: summary[key] for key in
           ("normal_sent", "control_sent", "delivered", "dropped", "spooled")}
    layers = trace_metrics(
        events, net, LIVE["n"], built["units"], built["steady"],
        built["latency_cutoff"], len(built["kills"]),
    )
    frames, intra = summary["frames_sent"], summary["intra_delivered"]
    layers.update({
        "app.jobs": status["jobs"], "app.jobs_durable": status["jobs_durable"],
        "app.resubmits": status["resubmits"],
        "shard.inter_shard_frac": frames / (frames + intra) if frames + intra else 0.0,
        "shard.frames_sent": frames, "shard.misrouted": summary["misrouted"],
        "shard.worker_cpu_s_max": max(worker_cpu), "shard.worker_cpu_s_min": min(worker_cpu),
        "shard.pipe_rtt_ms_p50": derive.median(rtts), "shard.spawn_s": built["spawn_s"],
        "wire.bytes_per_frame": summary["bytes_sent"] / frames if frames else 0.0,
        "stable.bytes_on_disk": dir_bytes(cluster.root, "node-"),
        "loop.cpu_util": cpu_s / wall_s,
        "analysis.merge_s": merge_s, "analysis.check_s": check_s,
    })
    return {
        "workload": "shard_mixed", "seed": seed, "traced": False, "failures": failures,
        "attempted": status["jobs"], "failed": status["jobs"] - status["jobs_durable"],
        "end_to_end": {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
                       "peak_rss_mb": peak_rss_mb},
        "layers": layers, **build_info,
    }


def child_main(
    workload: str, seed: int, trace: bool, started: float, work_dir: str,
    spans_out: Optional[str],
) -> Dict[str, Any]:
    """Entry point of a child process; ``work_dir`` is its scratch space."""
    os.makedirs(work_dir, exist_ok=True)
    try:
        if workload in spec.SIM_WORKLOADS:
            return run_sim(workload, seed, trace, started, spans_out)
        if workload == "tcp_mixed":
            return run_tcp(seed, trace, started, work_dir, spans_out)
        return run_shard(seed, started, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
