"""Tests for the workload generators."""

from repro.analysis import check_c1, check_quiescent
from repro.core import CheckpointProcess
from repro.net import FixedDelay
from repro.sim import Simulation
from repro.testing import build_sim
from repro.workloads import (
    BurstyWorkload,
    ClientServerWorkload,
    PipelineWorkload,
    RandomPeerWorkload,
    RingWorkload,
    ScriptedWorkload,
    exponential_arrivals,
)


def test_exponential_arrivals_within_window():
    sim, _ = build_sim(n=1)
    times = exponential_arrivals(sim, ("t",), rate=2.0, duration=50.0, start=5.0)
    assert all(5.0 <= t < 55.0 for t in times)
    assert 40 < len(times) < 170  # ~100 expected


def test_exponential_arrivals_zero_rate():
    sim, _ = build_sim(n=1)
    assert exponential_arrivals(sim, ("t",), rate=0.0, duration=50.0) == []


def test_exponential_arrivals_deterministic_per_seed():
    sim_a, _ = build_sim(n=1, seed=9)
    sim_b, _ = build_sim(n=1, seed=9)
    a = exponential_arrivals(sim_a, ("t",), 1.0, 20.0)
    b = exponential_arrivals(sim_b, ("t",), 1.0, 20.0)
    assert a == b


def test_random_peer_generates_traffic():
    sim, procs = build_sim(n=4, seed=2)
    RandomPeerWorkload(message_rate=1.0, duration=20.0).install(sim, procs)
    sim.run()
    assert sim.network.normal_sent > 20
    total_consumed = sum(p.app.consumed for p in procs.values())
    assert total_consumed == sim.network.normal_sent  # all delivered


def test_client_server_request_response():
    sim, procs = build_sim(n=4, seed=2)
    ClientServerWorkload(servers=[0], request_rate=1.0, duration=20.0).install(sim, procs)
    sim.run()
    server = procs[0]
    assert server.app.replies_sent > 5
    client_consumed = sum(procs[i].app.consumed for i in (1, 2, 3))
    assert client_consumed == server.app.replies_sent


def test_pipeline_items_flow_to_the_end():
    sim, procs = build_sim(n=4, seed=2)
    PipelineWorkload(stages=[0, 1, 2, 3], item_rate=1.0, duration=20.0).install(sim, procs)
    sim.run()
    # Every stage except the source consumed items; the sink forwarded none.
    assert procs[1].app.consumed > 5
    assert procs[3].app.consumed > 5
    assert procs[3].app.forwarded == 0
    assert procs[1].app.forwarded == procs[1].app.consumed


def test_ring_token_circulates():
    sim, procs = build_sim(n=4, seed=2)
    RingWorkload(tokens=1, hold_time=0.2, duration=20.0).install(sim, procs)
    sim.run()
    # The token visited every process repeatedly.
    assert all(p.app.consumed >= 3 for p in procs.values())


def test_bursty_traffic_is_modulated():
    sim, procs = build_sim(n=4, seed=2)
    BurstyWorkload(burst_rate=5.0, idle_rate=0.1, burst_length=10.0,
                   idle_length=10.0, duration=40.0).install(sim, procs)
    sim.run()
    sends = sim.trace.index.by_kind("send")
    busy = [e for e in sends if e.time % 20.0 < 10.0]
    idle = [e for e in sends if e.time % 20.0 >= 10.0]
    assert len(busy) > 5 * max(len(idle), 1)


def test_scripted_workload_steps():
    sim, procs = build_sim(n=2, seed=2)
    called = []
    ScriptedWorkload([
        (1.0, "send", 0, 1, "m"),
        (2.0, "step", 0),
        (3.0, "checkpoint", 1),
        (9.0, "rollback", 0),
        (12.0, "call", lambda: called.append(True)),
    ]).install(sim, procs)
    sim.run()
    assert procs[0].app.steps == 1
    assert procs[1].store.oldchkpt.seq >= 2
    assert called == [True]


def test_scripted_workload_rejects_unknown_step():
    import pytest

    from repro.errors import WorkloadError

    sim, procs = build_sim(n=1)
    with pytest.raises(WorkloadError):
        ScriptedWorkload([(1.0, "dance", 0)]).install(sim, procs)


def test_workloads_keep_protocol_consistent():
    """Each workload shape runs under checkpointing without violations."""
    for workload in (
        ClientServerWorkload(servers=[0], request_rate=0.8, duration=25.0),
        PipelineWorkload(stages=[0, 1, 2, 3], item_rate=0.8, duration=25.0),
        RingWorkload(tokens=2, hold_time=0.3, duration=25.0),
    ):
        sim, procs = build_sim(n=4, seed=4)
        workload.install(sim, procs)
        sim.scheduler.at(12.0, lambda: procs[2].initiate_checkpoint())
        sim.run(max_events=200000)
        check_quiescent(procs.values())
        check_c1(procs.values())
