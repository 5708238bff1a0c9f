"""Pre/post-refactor equivalence on the paper's scripted figure workloads.

The goldens in this directory were captured from the pre-sans-IO code (the
mixin-on-Node implementation) on the discrete-event kernel: full trace
event stream, committed checkpoint ledgers, final sequence numbers, and
network counters.  The engine/adapter split must reproduce them bit for bit
— same events in the same order at the same virtual times — proving the
refactor changed the architecture and nothing observable.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.app.state import AppProcess
from repro.app.traffic import JobTraffic
from repro.core import CheckpointProcess, ProtocolConfig
from repro.net import FixedDelay
from repro.sim import Simulation
from repro.testing import build_sim
from repro.workloads import (
    RandomPeerWorkload,
    ScriptedWorkload,
    figure2_steps,
    figure3_steps,
    figure4_steps,
)

GOLDEN_DIR = Path(__file__).parent
SEED = 1
HORIZON = 40.0

SCENARIOS = {
    "figure2": (figure2_steps, (0, 1)),
    "figure3": (figure3_steps, (1, 4)),
    "figure4": (figure4_steps, (1, 4)),
}


def capture(steps, pids):
    sim = Simulation(seed=SEED, delay_model=FixedDelay(0.5))
    procs = {i: sim.add_node(CheckpointProcess(i)) for i in range(pids[0], pids[1] + 1)}
    ScriptedWorkload(steps()).install(sim, procs)
    sim.run(until=HORIZON)
    summary = {
        "seed": SEED,
        "horizon": HORIZON,
        "pids": [pids[0], pids[1]],
        "events": [
            {"time": e.time, "kind": e.kind, "pid": e.pid, "fields": e.fields}
            for e in sim.trace
        ],
        "ledgers": {
            pid: [
                [r.seq, r.meta.get("recv", []), r.meta.get("sent", [])]
                for r in proc.committed_history
            ]
            for pid, proc in procs.items()
        },
        "final_seq": {pid: proc.store.oldchkpt.seq for pid, proc in procs.items()},
        "normal_sent": sim.network.normal_sent,
        "control_sent": sim.network.control_sent,
        "delivered": sim.network.delivered,
        "dropped": sim.network.dropped,
    }
    # Identical normalisation to the capture script: JSON round-trip with
    # str() for the identifier types (MessageId, TreeId).
    return json.loads(json.dumps(summary, default=str))


@pytest.mark.parametrize("name", sorted(SCENARIOS), ids=sorted(SCENARIOS))
def test_refactored_stack_reproduces_golden_trace(name):
    steps, pids = SCENARIOS[name]
    golden = json.loads((GOLDEN_DIR / f"{name}_trace.json").read_text())
    assert capture(steps, pids) == golden


# ----------------------------------------------------------------------
# The canonical mixed scenario, scaled down: same seed => same trace
# ----------------------------------------------------------------------
#: sha256 of the full trace below, recorded at commit 20a294c (before the
#: engine's host port).  A change that claims "no trace event moved" is held
#: to this constant; one that means to move the trace re-records it and says so.
MIXED_TRACE_SHA256 = "2fe43faa74c1401460f3eb09ccc84b4036c1679fc357abebb3d0fe0a5f8e1ca2"


def mixed_trace_sha256():
    """``bench_e2e``'s sim_mixed in small: jobs + messages + one kill/restart."""
    sim, procs = build_sim(
        n=8, seed=7, cls=AppProcess, detector_latency=1.0, spoolers=True,
        config=ProtocolConfig(checkpoint_interval=8.0, failure_resilience=True),
    )
    RandomPeerWorkload(message_rate=1.0, step_rate=0.5, duration=30.0).install(sim, procs)
    JobTraffic(
        jobs=60, rate=4.0, horizon=40.0, stages=(2, 2, 2), unit_time=0.25, retry=1.0
    ).install(sim, procs)
    sim.scheduler.at(18.0, lambda: sim.crash(1), label="kill P1")
    sim.scheduler.at(24.0, lambda: sim.recover(1), label="restart P1")
    sim.run(until=45.0)
    assert sim.trace.index.count("rollback") > 0 and sim.trace.index.count("job_done") > 0
    digest = hashlib.sha256()
    for e in sim.trace:
        digest.update(json.dumps([e.index, e.time, e.kind, e.pid, e.fields],
                                 default=str, sort_keys=True).encode())
    return digest.hexdigest()


def test_mixed_scenario_trace_is_pinned():
    assert mixed_trace_sha256() == MIXED_TRACE_SHA256
