"""Tests for the Chandy-Lamport snapshot baseline."""

from repro import tracekinds as T
from repro.analysis import check_c1, collect
from repro.baselines import ChandyLamportProcess
from repro.net import UniformDelay
from repro.testing import build_sim, run_random_workload


def build(n=4, seed=0):
    return build_sim(n=n, seed=seed, fifo=True, cls=ChandyLamportProcess,
                     delay=UniformDelay(0.4, 0.8))


def test_snapshot_reaches_every_process():
    sim, procs = build()
    sim.scheduler.at(2.0, lambda: procs[1].initiate_checkpoint())
    sim.run(until=60.0)
    commits = sim.trace.index.by_kind(T.K_CHKPT_COMMIT)
    assert {e.pid for e in commits} == {0, 1, 2, 3}


def test_marker_cost_is_n_squared():
    sim, procs = build(n=5)
    sim.scheduler.at(2.0, lambda: procs[0].initiate_checkpoint())
    sim.run(until=60.0)
    markers = [e for e in sim.trace.index.by_kind("ctrl_send")
               if e.fields["msg_type"] == "marker"]
    assert len(markers) == 5 * 4  # one marker per directed channel


def test_snapshot_completes_and_is_consistent():
    sim, procs = build()
    sim.scheduler.at(1.0, lambda: procs[0].send_app_message(1, "m"))
    sim.scheduler.at(3.0, lambda: procs[1].initiate_checkpoint())
    sim.run(until=60.0)
    assert all(s.complete for p in procs.values() for s in p.snapshots.values())
    check_c1(procs.values())


def test_channel_state_captures_in_transit_messages():
    sim, procs = build()
    # Send a message timed to be in flight when the snapshot line passes.
    sim.scheduler.at(2.0, lambda: procs[2].send_app_message(1, "in-flight"))
    sim.scheduler.at(2.1, lambda: procs[1].initiate_checkpoint())
    sim.run(until=60.0)
    snapshot = next(iter(procs[1].snapshots.values()))
    recorded = [m for msgs in snapshot.channel_state.values() for m in msgs]
    assert "in-flight" in recorded


def test_no_blocking_at_all():
    sim, procs = build()
    run_random_workload(sim, procs, duration=30.0, checkpoint_rate=0.05)
    stats = collect(sim)
    assert stats.send_blocked_time == 0.0
    assert stats.comm_blocked_time == 0.0


def test_no_rollback_support():
    sim, procs = build()
    assert procs[0].initiate_rollback() is None


def test_randomized_snapshots_consistent():
    for seed in range(5):
        sim, procs = build(n=5, seed=seed)
        run_random_workload(sim, procs, duration=40.0, checkpoint_rate=0.05)
        check_c1(procs.values())
