"""E-LIVE — the live kernel against the simulator on one workload.

Runs the identical seeded random workload under three kernels:

* the discrete-event :class:`~repro.sim.simulation.Simulation` (virtual
  time — the fast baseline);
* :class:`~repro.runtime.loop.AsyncRuntime` with the loopback transport and
  the wire codec on (every message round-trips through the binary format);
* the same with the codec off (pure real-timer kernel overhead).

Reported per kernel: wall seconds, protocol messages sent, trace events,
and committed checkpoints — the protocol-visible columns must agree across
kernels (same seed, same delay model), which the table makes auditable;
wall time shows what real timers and serialization cost.  The live rows run
at an aggressive ``time_scale`` so the whole experiment stays in CI budget.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

from repro.runtime.transport import LoopbackTransport
from repro.testing import build_runtime, build_sim, run_random_workload
from repro.workloads import RandomPeerWorkload

DURATION = 20.0
SEED = 11
N = 4
TIME_SCALE = 0.01
SETTLE = 10.0


def _row(kernel: str, wall: float, net: Any, trace_events: int, procs: Dict) -> Dict[str, Any]:
    return {
        "kernel": kernel,
        "wall_s": round(wall, 3),
        "normal_sent": net.normal_sent,
        "control_sent": net.control_sent,
        "delivered": net.delivered,
        "trace_events": trace_events,
        "committed": sum(len(p.committed_history) for p in procs.values()),
    }


def _run_sim() -> Dict[str, Any]:
    start = time.perf_counter()
    sim, procs = build_sim(n=N, seed=SEED)
    run_random_workload(sim, procs, duration=DURATION, checkpoint_rate=0.1)
    wall = time.perf_counter() - start
    return _row("simulation", wall, sim.network, sim.trace.events_recorded, procs)


def _run_live(codec: bool) -> Dict[str, Any]:
    start = time.perf_counter()
    runtime, procs = build_runtime(
        n=N,
        seed=SEED,
        transport=LoopbackTransport(codec=codec),
        time_scale=TIME_SCALE,
    )
    RandomPeerWorkload(
        message_rate=1.0, duration=DURATION, checkpoint_rate=0.1
    ).install(runtime, procs)
    runtime.run(DURATION + SETTLE)
    wall = time.perf_counter() - start
    label = "live loopback" + (" (wire codec)" if codec else "")
    return _row(label, wall, runtime.network, runtime.trace.events_recorded, procs)


def experiment_live() -> List[Dict[str, Any]]:
    """Kernel comparison rows for the E-LIVE table."""
    return [_run_sim(), _run_live(codec=True), _run_live(codec=False)]
