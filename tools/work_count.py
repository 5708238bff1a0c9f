#!/usr/bin/env python3
"""Count the Python-level function calls of one simulator benchmark rep.

Builds one ``sim_msg`` / ``sim_mixed`` rep with ``bench_e2e``'s own builders
(imported, never edited), runs it to its horizon under ``sys.setprofile`` and
prints the total number of Python function calls, calls per scheduler event
and the ten most-called functions, then the container objects the garbage
collector tracks once the rep is over (after a full collection, the whole
process), in total and per trace record.  Last it profiles the rep's trace
gate, ``scenarios.gate_trace(sim.trace.index, pids)`` (imported too), and
prints its Python calls and the ``TraceEvent``\\ s it built.  Same seed =>
same trace => same integers, so the rep is built and run twice and every
count must agree to the unit: this is a deterministic work proxy (ROADMAP
item 2(b)), to be read as a count, never as a speed-up.  C-level calls are
not counted.

    python3 tools/work_count.py sim_mixed --seed 3
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import Any, Callable, Dict, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from bench_e2e import scenarios  # noqa: E402
import repro.analysis  # noqa: E402,F401  (the gate imports it: load it before either census)
from repro.sim.trace import TraceEvent  # noqa: E402

BUILDERS = {"sim_msg": scenarios.build_sim_msg, "sim_mixed": scenarios.build_sim_mixed}


def profile(action: Callable[..., Any], *args: Any, **kwargs: Any) -> Dict[Any, int]:
    """Python calls per code object while ``action(*args, **kwargs)`` runs."""
    per_code: Dict[Any, int] = {}

    def on_event(frame: Any, event: str, _arg: Any) -> None:
        if event == "call":
            code = frame.f_code
            per_code[code] = per_code.get(code, 0) + 1

    sys.setprofile(on_event)
    try:
        action(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return per_code


def count_rep(workload: str, seed: int) -> Tuple[Tuple[int, ...], Dict[Any, int]]:
    """``((calls, scheduler events, trace records, tracked objects, gate
    calls, events the gate built), calls per code object of the run)``."""
    built = BUILDERS[workload](seed)
    sim = built["sim"]
    events0 = sim.scheduler.events_processed
    per_code = profile(sim.run, until=built["until"])
    gc.collect()
    tracked = len(gc.get_objects())
    # The lambda reads ``sim.trace.index`` inside the profile: building the
    # index is part of the gate's work.
    gate = profile(lambda: scenarios.gate_trace(sim.trace.index, sorted(built["procs"])))
    counts = (sum(per_code.values()), sim.scheduler.events_processed - events0,
              sim.trace.events_recorded, tracked, sum(gate.values()),
              gate.get(TraceEvent.__init__.__code__, 0))
    return counts, per_code


def callee_name(code: Any) -> str:
    path = os.path.relpath(code.co_filename, ROOT)
    return f"{path}:{code.co_firstlineno} {getattr(code, 'co_qualname', code.co_name)}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    # Only integers survive the first rep, so both censuses see the same heap.
    first = count_rep(args.workload, args.seed)[0]
    counts, per_code = count_rep(args.workload, args.seed)
    calls, events, records, tracked, gate_calls, gate_built = counts
    if first != counts:
        print("NOT REPEATABLE: (calls, events, records, tracked, gate calls, gate events) "
              f"{first}, then {counts}", file=sys.stderr)
        return 1
    print(f"{args.workload} seed {args.seed}: {calls} python calls, {events} scheduler "
          f"events, {calls / events:.2f} calls/event (two runs, identical)")
    for code, n in sorted(per_code.items(), key=lambda kv: (-kv[1], callee_name(kv[0])))[:10]:
        print(f"{n:>10}  {100.0 * n / calls:5.1f}%  {callee_name(code)}")
    print(f"{tracked} tracked objects after the rep, {records} trace records, "
          f"{tracked / records:.2f} tracked per record (two runs, identical)")
    print(f"trace gate: {gate_calls} python calls, {gate_built} TraceEvents built "
          f"(two runs, identical)")
    return 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left (``| head``) after a successful count.  Point stdout
        # at /dev/null so the interpreter's flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 0
    sys.exit(status)
