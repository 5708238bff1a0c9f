"""E-NATIVE — compiled vs. interpreted hot paths, measured honestly.

The native build (see DESIGN.md §14) compiles the wire-v2 codec and the
snapshot freeze/diff/hash kernels to C extensions behind the
:mod:`repro._native` loader; the engine event loop stays interpreted (its
compilation requires the mypyc toolchain, which the reference environment
does not ship).  This experiment is the speedup matrix for that work:

1. **codec** — wire-v2 encode+decode round-trips per second, interpreted
   (``wire._py_roundtrip``, the pure-Python implementation kept importable
   for exactly this A/B) vs. whatever the public ``wire.roundtrip`` is
   bound to.  The E-SCALE burst shape at n ∈ {64, 256, 1024}.  This is the
   row the PR's >= 5x claim rides on.
2. **snapshot** — freeze / content-hash / diff rates on an n-entry
   JSON-shaped state, interpreted vs. native.  Reported even though the
   deltas are small: both backends spend most of their time constructing
   the same Python ``FrozenDict``/``FrozenList`` objects, so the honest
   number is near 1x (diff benefits most).
3. **sim** — an end-to-end protocol run (4 processes, ring workload with
   periodic checkpoints) executed in subprocesses under ``REPRO_NATIVE=0``
   vs. the native build, because the backend is chosen at import time.
   The discrete-event kernel never touches the wire codec and the engine
   is interpreted either way, so this row isolates what the compiled
   snapshot path buys a *whole* simulation — the delta is reported
   whatever it is.

When the extensions are not built (no C toolchain), every row is clearly
marked ``interpreted-fallback`` and no speedup is claimed.

``ENATIVE_QUICK=1`` shrinks the sweep to n=64 with fewer reps (CI shape).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.net.message import Envelope, normal
from repro.runtime import wire
from repro.stable import snapshot as snap
from repro.types import MessageId

SIZES: Sequence[int] = (64, 256, 1024)
REPS = 5
SIM_REPS = 3
QUICK_SIZES: Sequence[int] = (64,)
QUICK_REPS = 2


def quick_mode() -> bool:
    """True when the reduced CI sweep was requested via ``ENATIVE_QUICK``."""
    return os.environ.get("ENATIVE_QUICK", "") not in ("", "0")


def backend_label() -> str:
    """The active codec/snapshot backend, for the table's ``backend`` column."""
    return "cext" if wire.native_active() and snap.native_active() else "interpreted-fallback"


def _median_rate(reps: int, run: Callable[[], float]) -> float:
    """Median rate over ``reps`` runs, after one warm-up run."""
    run()
    return statistics.median(run() for _ in range(reps))


def _burst(n: int) -> List[Envelope]:
    """The E-SCALE workload shape: n light normal envelopes P0 -> P1."""
    burst = [normal(0, 1, MessageId(0, i), label=1, body=None) for i in range(n)]
    for envelope in burst:  # realistic: stamped as the network would
        envelope.send_time = 1.0
    return burst


# ----------------------------------------------------------------------
# Row 1: the wire-v2 codec
# ----------------------------------------------------------------------
def codec_row(n: int, reps: int) -> Dict[str, Any]:
    """Interpreted vs. native round-trips/sec for the binary v2 codec."""
    burst = _burst(n)

    def roundtrips(fn: Callable[..., Envelope]) -> Callable[[], float]:
        def run() -> float:
            start = time.perf_counter()
            for envelope in burst:
                fn(envelope)
            return n / (time.perf_counter() - start)

        return run

    interp = _median_rate(reps, roundtrips(wire._py_roundtrip))
    row: Dict[str, Any] = {
        "metric": "codec",
        "n": n,
        "backend": backend_label(),
        "interp_env_s": round(interp),
    }
    if wire.native_active():
        native = _median_rate(reps, roundtrips(wire.roundtrip))
        row["native_env_s"] = round(native)
        row["speedup"] = round(native / interp, 2)
    else:
        # No toolchain: one honest interpreted column, no speedup claimed.
        row["native_env_s"] = None
        row["speedup"] = None
    return row


# ----------------------------------------------------------------------
# Row 2: the snapshot kernels
# ----------------------------------------------------------------------
def _snapshot_state(n: int) -> Dict[str, Any]:
    """An n-entry JSON-shaped state with nesting (the freeze worst case)."""
    return {
        f"k{i}": {"a": [i, i * 2, "x" * 8], "b": {"n": i, "s": str(i)}, "c": i * 0.5}
        for i in range(n)
    }


def snapshot_row(n: int, reps: int) -> Dict[str, Any]:
    """Interpreted vs. native freeze / content-hash / diff rates."""
    state = _snapshot_state(n)
    changed = _snapshot_state(n)
    changed["k0"]["b"]["n"] = -1
    base = snap._py_freeze(state)
    target = snap._py_freeze(changed)

    def timed(fn: Callable[..., Any], *fn_args: Any) -> Callable[[], float]:
        def run() -> float:
            start = time.perf_counter()
            fn(*fn_args)
            return 1.0 / (time.perf_counter() - start)

        return run

    def hash_run(hasher: Callable[[Any], int], frozen: Any) -> Callable[[], float]:
        def run() -> float:
            # content_hash caches on the frozen containers; re-freeze so each
            # rep hashes cold, which is the rate a snapshot store actually pays.
            cold = snap._py_freeze(state)
            start = time.perf_counter()
            hasher(cold)
            return 1.0 / (time.perf_counter() - start)

        return run

    row: Dict[str, Any] = {"metric": "snapshot", "n": n, "backend": backend_label()}
    pairs = {
        "freeze": (timed(snap._py_freeze, state), timed(snap.freeze, state)),
        "hash": (hash_run(snap._py_content_hash, base), hash_run(snap.content_hash, base)),
        "diff": (timed(snap._py_diff, base, target), timed(snap.diff, base, target)),
    }
    for op, (interp_run, native_run) in pairs.items():
        interp = _median_rate(reps, interp_run)
        row[f"interp_{op}_s"] = round(interp, 1)
        if snap.native_active():
            native = _median_rate(reps, native_run)
            row[f"{op}_speedup"] = round(native / interp, 2)
        else:
            row[f"{op}_speedup"] = None
    return row


# ----------------------------------------------------------------------
# Row 3: a whole simulation, backend chosen per subprocess
# ----------------------------------------------------------------------
_SIM_CHILD = r"""
import json, sys, time
from repro.core import CheckpointProcess
from repro.net import FixedDelay
from repro.sim import Simulation
from repro.workloads import ScriptedWorkload

n = int(sys.argv[1])
steps, t = [], 1.0
for i in range(n):
    steps.append((t, "send", i % 4, (i + 1) % 4, i))
    t += 0.05
    if (i + 1) % 16 == 0:
        steps.append((t, "checkpoint", i % 4))
        t += 0.05

sim = Simulation(seed=1, delay_model=FixedDelay(0.5))
procs = {p: sim.add_node(CheckpointProcess(p)) for p in range(4)}
ScriptedWorkload(steps).install(sim, procs)
start = time.perf_counter()
sim.run(until=t + 20.0)
wall = time.perf_counter() - start

import repro.stable.snapshot as S
print(json.dumps({
    "wall": wall,
    "events": sim.scheduler.events_processed,
    "snapshot_backend": "cext" if S.native_active() else "interpreted",
}))
"""


def _sim_child(n: int, native: bool) -> Dict[str, Any]:
    """One protocol run in a subprocess pinned to one backend."""
    import repro

    env = dict(os.environ)
    env["REPRO_NATIVE"] = "auto" if native else "0"
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _SIM_CHILD, str(n)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def sim_row(n: int, reps: int) -> Dict[str, Any]:
    """End-to-end simulator events/sec under each backend (subprocess A/B)."""

    def rate(native: bool) -> Callable[[], float]:
        def run() -> float:
            result = _sim_child(n, native)
            return result["events"] / result["wall"]

        return run

    interp = _median_rate(reps, rate(False))
    row: Dict[str, Any] = {
        "metric": "sim",
        "n": n,
        # The engine event loop is interpreted in *both* columns (no mypyc
        # toolchain); the native column's delta is the compiled snapshot
        # path as seen by a whole run.
        "backend": f"{backend_label()}, engine=interpreted",
        "interp_events_s": round(interp),
    }
    if snap.native_active():
        native = _median_rate(reps, rate(True))
        row["native_events_s"] = round(native)
        row["speedup"] = round(native / interp, 2)
    else:
        row["native_events_s"] = None
        row["speedup"] = None
    return row


def experiment_native(
    sizes: Optional[Sequence[int]] = None,
    reps: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """The E-NATIVE table (see EXPERIMENTS.md)."""
    if sizes is None:
        sizes = QUICK_SIZES if quick_mode() else SIZES
    if reps is None:
        reps = QUICK_REPS if quick_mode() else REPS
    sim_reps = QUICK_REPS if quick_mode() else SIM_REPS
    rows: List[Dict[str, Any]] = []
    for n in sizes:
        rows.append(codec_row(n, reps))
    for n in sizes:
        rows.append(snapshot_row(n, reps))
    for n in sizes:
        rows.append(sim_row(n, sim_reps))
    return rows


__all__ = [
    "backend_label",
    "codec_row",
    "experiment_native",
    "quick_mode",
    "sim_row",
    "snapshot_row",
]
