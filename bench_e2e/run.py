#!/usr/bin/env python3
"""End-to-end benchmark: four seeded workloads over sim, TCP and sharded kernels.

Driver form (one workload, last stdout line is the result object)::

    python3 bench_e2e/run.py --workload sim_mixed --seed 3 --seconds 25 --trace 0

Ledger form (all four workloads, end-to-end and traced, every metric printed
by name and unit; ``--repeat 2`` checks two sets agree within the bounds;
``--write`` regenerates ``BENCHMARK.json`` and ``bench_e2e/BASELINE.json``)::

    python3 bench_e2e/run.py --all --repeat 2 --write

This process only orchestrates.  Each rep runs in a child process (the
hidden ``--child`` form) that builds, runs, checks and reports one run; see
``scenarios.py`` for why.  README.md defines every metric.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # a child's set-up clock starts here

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, ROOT)

from bench_e2e import derive, scenarios, spec  # noqa: E402

#: Hard stop for one child; the driver allows a run 180 s in total.
CHILD_TIMEOUT_S = 150.0
MIN_REPS = 3


class BenchError(RuntimeError):
    """A child failed or the run could not be measured."""


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------

_children_started = 0


def spawn_child(workload: str, seed: int, trace: bool,
                spans_out: Optional[str] = None) -> Dict[str, Any]:
    """Run one child to completion and return the object it printed."""
    global _children_started
    _children_started += 1
    work_dir = os.path.join(WORK, f"{os.getpid()}-{_children_started}")
    command = [
        sys.executable, os.path.abspath(__file__), "--child", "--workload", workload,
        "--seed", str(seed), "--trace", "1" if trace else "0", "--work-dir", work_dir,
    ]
    if spans_out:
        command += ["--spans-out", spans_out]
    # Its own session, so a timeout can take the shard workers down with it.
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=ROOT, start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as exc:  # timeout, Ctrl-C, SIGTERM: leave nothing running
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{workload} child exceeded {CHILD_TIMEOUT_S:.0f}s") from None
        raise
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if child.returncode != 0:
        raise BenchError(f"{workload} child exited {child.returncode}:\n{err[-4000:]}")
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{workload} child printed no result:\n{out[-2000:]}") from None


def child_entry(args: argparse.Namespace) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Shard workers are spawned interpreters; they find repro through this.
    os.environ["PYTHONPATH"] = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")
    result = scenarios.child_main(
        args.workload, args.seed, bool(args.trace), _STARTED, args.work_dir, args.spans_out,
    )
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# One measured run of one workload
# ----------------------------------------------------------------------

def _medians(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: derive.median([row[key] for row in rows]) for key in rows[0]}


def _determinism_failures(reps: List[Dict[str, Any]]) -> List[str]:
    """Same seed, same simulator: the exact counts must repeat exactly."""
    failures = []
    for key in spec.EXACT_ON_SIM + ("analysis.trace_events",):
        seen = {rep["layers"][key] for rep in reps}
        if len(seen) > 1:
            failures.append(f"{key} differs across reps of one seed: {sorted(seen)}")
    return failures


def _least_disturbed(runs: List[Dict[str, Any]], name: str) -> float:
    """The time of ``name`` with the host's interference taken out.

    Simulator reps time the run in slices that hold the same work in every
    rep of a seed: each slice counts at its fastest rep.  Live reps have no
    such slices (their wall time is the schedule's): the fastest rep counts.
    """
    if all("slices" in run for run in runs):
        return derive.sum_of_minima([run["slices"][name] for run in runs])
    return min(run["end_to_end"][name] for run in runs)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            spans_out: Optional[str] = None) -> Dict[str, Any]:
    """Repeat the workload's fixed-size rep until ``seconds`` were measured.

    At least ``MIN_REPS`` reps, each in a fresh child.  A traced run spends
    the same budget on pairs of an untraced and a traced rep, so the tracing
    overhead comes from one invocation.  ``shard_mixed`` has no traced rep:
    wrappers cannot reach the spawned workers, so its per-layer form is the
    plain reps read through the workers' counters and per-worker CPU.
    """
    pairs = trace and workload != "shard_mixed"
    runs: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    measured = 0.0
    while True:
        runs.append(spawn_child(workload, seed, False))
        round_s = runs[-1]["end_to_end"]["wall_s"]
        if pairs:
            traced.append(spawn_child(workload, seed, True, spans_out))
            round_s += traced[-1]["end_to_end"]["wall_s"]
        measured += round_s
        if len(runs) >= (1 if pairs else MIN_REPS) and measured + round_s > seconds:
            break
    return _combine(workload, seed, runs, traced)


def _combine(workload: str, seed: int, runs: List[Dict[str, Any]],
             traced: List[Dict[str, Any]]) -> Dict[str, Any]:
    every = runs + traced
    failures = [f for run in every for f in run["failures"]]
    warnings = [w for run in every for w in run.get("warnings", [])]
    if workload in spec.SIM_WORKLOADS:
        failures += _determinism_failures(every)
    end_to_end = _medians([run["end_to_end"] for run in runs])
    # Host interference on a shared box only ever adds time (identical reps
    # of one seed read 2.4-4.1 s here), so the least disturbed reading, not
    # the middle one, is the reading of the program.
    for name in ("wall_s", "cpu_s"):
        end_to_end[name] = _least_disturbed(runs, name)
    layers = _medians([run["layers"] for run in (traced or runs)])
    if traced:
        layers["trace_overhead_frac"] = (
            _least_disturbed(traced, "cpu_s") / end_to_end["cpu_s"] - 1.0
        )
    first = runs[0]
    return {
        "workload": workload,
        "correct": not failures,
        "failures": failures,
        "warnings": warnings,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "end_to_end": {name: end_to_end[name] for name in spec.END_TO_END_UNITS},
        "per_layer": {name: float(layers.get(name, 0.0)) for name in spec.PER_LAYER_UNITS},
        "fingerprint": {
            **machine_fingerprint(),
            "native_build": first["native_build"], "backends": first["backends"],
            "seed": seed, "reps": len(runs), "traced_reps": len(traced),
            "time_scale_s": scenarios.TIME_SCALE,
            "injected_delay_ms": (round(scenarios.LIVE_DELAY * scenarios.TIME_SCALE * 1000.0, 3)
                                  if workload in spec.LIVE_WORKLOADS else None),
            "samples": {key.split(".", 1)[1]: int(value) for key, value in layers.items()
                        if key.startswith("samples.")},
        },
    }


def machine_fingerprint() -> Dict[str, Any]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }


def git_commit() -> Optional[str]:
    """HEAD of the repository at ROOT, or None outside one (the driver's
    checkout is a plain directory)."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------

def result_line(result: Dict[str, Any], trace: bool) -> str:
    values = result["per_layer"] if trace else result["end_to_end"]
    units = spec.PER_LAYER_UNITS if trace else spec.END_TO_END_UNITS
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    })


def print_report(result: Dict[str, Any], sections: List[str]) -> None:
    print(f"== {result['workload']}  correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    print("fingerprint " + json.dumps(result["fingerprint"], sort_keys=True))
    for failure in result["failures"]:
        print(f"  GATE FAILED: {failure}")
    for warning in result["warnings"]:
        print(f"  WARNING: {warning}")
    for section in sections:
        units = spec.END_TO_END_UNITS if section == "end_to_end" else spec.PER_LAYER_UNITS
        for name, unit in units.items():
            print(f"  {name:<28} {result[section][name]:>16.6f} {unit}")


def run_driver(args: argparse.Namespace) -> int:
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.spans_out)
    print_report(result, ["per_layer" if args.trace else "end_to_end"])
    print(result_line(result, bool(args.trace)))
    return 0 if result["correct"] else 1


def run_ledger(args: argparse.Namespace) -> int:
    """All workloads, both forms, ``--repeat`` times; the human-facing ledger."""
    sets: List[Dict[str, Dict[str, Any]]] = []
    ok = True
    for number in range(args.repeat):
        print(f"#### set {number + 1} of {args.repeat} (seed {args.seed}, {args.seconds}s per run)")
        rows: Dict[str, Dict[str, Any]] = {}
        for workload in spec.workload_names():
            plain = measure(workload, args.seed, args.seconds, False)
            traced = measure(workload, args.seed, args.seconds, True)
            plain["per_layer"] = traced["per_layer"]
            plain["failures"] += traced["failures"]
            plain["warnings"] += traced["warnings"]
            plain["correct"] = plain["correct"] and traced["correct"]
            plain["fingerprint"]["traced"] = traced["fingerprint"]
            print_report(plain, ["end_to_end", "per_layer"])
            # A rep whose generator ran late only warns: the latencies reported
            # are medians over the reps.  A late median voids them and fails.
            sustained = (plain["per_layer"]["loop.probe_lag_ms_p99"]
                         < scenarios.TIME_SCALE * 1000.0)
            ok = ok and plain["correct"] and sustained
            rows[workload] = plain
        sets.append(rows)

    spreads: Dict[str, Dict[str, float]] = {}
    for workload in spec.workload_names():
        spreads[workload] = {}
        for name, bound in spec.BOUNDS.items():
            values = [rows[workload]["end_to_end"][name] for rows in sets]
            spread = (max(values) - min(values)) / min(values)
            spreads[workload][name] = spread
            if len(sets) > 1:
                verdict = "ok" if spread <= bound else "OUTSIDE BOUND"
                print(f"spread {workload:<12} {name:<12} {spread:8.4f} (bound {bound}) {verdict}")
                ok = ok and spread <= bound
        if len(sets) > 1 and workload in spec.SIM_WORKLOADS:
            for name in spec.EXACT_ON_SIM:
                if len({rows[workload]["per_layer"][name] for rows in sets}) != 1:
                    print(f"exact count {name} differs between sets on {workload}")
                    ok = False
    if args.write:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as handle:
            json.dump(spec.benchmark_json(), handle, indent=2)
            handle.write("\n")
        baseline = {
            "note": "recorded by run.py --all --write; the ruler's own readings, no gain claimed",
            "seconds": args.seconds, "seed": args.seed, "sets": len(sets),
            "bounds": spec.BOUNDS, "spread_between_sets": spreads,
            "workloads": {
                workload: {key: sets[-1][workload][key]
                           for key in ("end_to_end", "per_layer", "fingerprint",
                                       "attempted", "failed", "correct")}
                for workload in spec.workload_names()
            },
        }
        with open(os.path.join(HERE, "BASELINE.json"), "w") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote BENCHMARK.json and bench_e2e/BASELINE.json")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.workload_names(),
                        help="run this one workload (driver form)")
    parser.add_argument("--all", action="store_true", help="run the whole ledger")
    parser.add_argument("--seed", type=int, default=0, help="seeds the generated inputs only")
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS),
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, print the per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="with --all: run the set this many times and compare")
    parser.add_argument("--write", action="store_true",
                        help="with --all: write BENCHMARK.json and bench_e2e/BASELINE.json")
    parser.add_argument("--spans-out", default=None, metavar="PATH",
                        help="traced runs also write every span here as JSON lines")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", default=None, help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.child:
        return child_entry(args)
    # Die through the normal unwinding, so spawn_child can reap its child.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    try:
        if args.all:
            return run_ledger(args)
        if args.workload is None:
            print("give --workload NAME or --all", file=sys.stderr)
            return 2
        return run_driver(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(WORK)  # children removed their own directories
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
