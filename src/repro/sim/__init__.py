"""Deterministic discrete-event simulation kernel.

Public surface:

* :class:`~repro.sim.simulation.Simulation` — the facade to build runs on.
* :class:`~repro.sim.node.Node` — actor base class for simulated processes.
* :class:`~repro.sim.scheduler.Scheduler` — the event loop (rarely used
  directly; ``Simulation`` owns one).
* :class:`~repro.sim.trace.Trace` — structured execution log.
* :class:`~repro.sim.rng.Rng` — named, reproducible randomness streams.
"""

from repro.priorities import (
    PRIORITY_CHECKPOINT,
    PRIORITY_NORMAL,
    PRIORITY_ROLLBACK,
    PRIORITY_TIMER,
)
from repro.sim.node import Node
from repro.sim.rng import Rng
from repro.sim.scheduler import Scheduler
from repro.sim.simulation import Simulation
from repro.sim.trace import (
    InMemorySink,
    JsonlStreamSink,
    Trace,
    TraceEvent,
    TraceSink,
    load_jsonl,
)

__all__ = [
    "InMemorySink",
    "JsonlStreamSink",
    "Node",
    "PRIORITY_CHECKPOINT",
    "PRIORITY_NORMAL",
    "PRIORITY_ROLLBACK",
    "PRIORITY_TIMER",
    "Rng",
    "Scheduler",
    "Simulation",
    "Trace",
    "TraceEvent",
    "TraceSink",
    "load_jsonl",
]
