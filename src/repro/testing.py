"""Builders shared by the test suite, the benchmarks, and the examples.

These wrap the three-line setup dance (simulation + processes + start) so
experiment code reads as scenario logic only.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Type

from repro.core import CheckpointProcess, ProtocolConfig
from repro.failure import FailureDetector
from repro.net import FifoChannel, FixedDelay
from repro.sim import Simulation, TraceSink
from repro.workloads import RandomPeerWorkload


def build_sim(
    n: int = 4,
    seed: int = 0,
    delay=None,
    fifo: bool = False,
    cls: Type[CheckpointProcess] = CheckpointProcess,
    config: Optional[ProtocolConfig] = None,
    detector_latency: Optional[float] = None,
    spoolers: bool = False,
    sinks: Optional[List[TraceSink]] = None,
    storage_factory: Optional[Callable[[int], object]] = None,
):
    """Build a started simulation with ``n`` protocol processes.

    Returns ``(sim, procs)`` where ``procs`` maps pid -> process.  With
    ``detector_latency`` set a failure detector is attached; with
    ``spoolers`` each process gets a two-replica spooler group on its
    neighbours (the Section 6 configuration).  ``sinks`` configures the
    trace pipeline (default: one in-memory sink).  ``storage_factory``
    supplies each process's stable-storage backend (pid -> storage); the
    default is each process's own snapshot-backed in-memory storage.
    """
    sim = Simulation(
        seed=seed,
        delay_model=delay or FixedDelay(0.5),
        channel=FifoChannel() if fifo else None,
        sinks=sinks,
    )
    procs: Dict[int, CheckpointProcess] = {
        i: sim.add_node(
            cls(i, config, storage=storage_factory(i) if storage_factory else None)
        )
        for i in range(n)
    }
    if detector_latency is not None:
        FailureDetector(sim, detection_latency=detector_latency)
    if spoolers:
        for i in range(n):
            sim.network.install_spoolers(i, [(i + 1) % n, (i + 2) % n])
    sim.run(until=0.0)  # fire on_start hooks
    return sim, procs


def run_random_workload(
    sim,
    procs,
    duration: float = 40.0,
    message_rate: float = 1.0,
    checkpoint_rate: float = 0.05,
    error_rate: float = 0.0,
    horizon: Optional[float] = None,
    max_events: int = 400000,
):
    """Install the standard random workload and run the simulation."""
    RandomPeerWorkload(
        message_rate=message_rate,
        duration=duration,
        checkpoint_rate=checkpoint_rate,
        error_rate=error_rate,
    ).install(sim, procs)
    sim.run(until=horizon, max_events=max_events)
    return sim, procs
