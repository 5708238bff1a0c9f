"""Tests for the Tamir-Séquin baseline: system-wide checkpoints."""

from repro import tracekinds as T
from repro.analysis import check_c1, check_no_dangling_receives, collect, reconstruct_trees
from repro.baselines import TamirSequinProcess
from repro.net import UniformDelay
from repro.testing import build_sim, run_random_workload


def build(n=4, seed=0):
    return build_sim(n=n, seed=seed, fifo=True, cls=TamirSequinProcess,
                     delay=UniformDelay(0.4, 0.8))


def test_every_process_checkpoints_every_instance():
    sim, procs = build()
    sim.scheduler.at(2.0, lambda: procs[3].initiate_checkpoint())
    sim.run(until=60.0)
    # Even processes that exchanged no messages are forced.
    assert all(p.store.oldchkpt.seq >= 2 for p in procs.values())
    tentatives = sim.trace.index.by_kind(T.K_CHKPT_TENTATIVE)
    assert {e.pid for e in tentatives} == {0, 1, 2, 3}


def test_requests_route_through_static_coordinator():
    sim, procs = build()
    sim.scheduler.at(2.0, lambda: procs[3].initiate_checkpoint())
    sim.run(until=60.0)
    starts = sim.trace.index.by_kind(T.K_INSTANCE_START)
    assert all(e.pid == 0 for e in starts)  # coordinator = lowest id


def test_global_rollback_restores_everyone():
    sim, procs = build()
    sim.scheduler.at(1.0, lambda: procs[0].send_app_message(1, "m"))
    sim.scheduler.at(3.0, lambda: procs[2].initiate_rollback())
    sim.run(until=60.0)
    rolls = sim.trace.index.by_kind(T.K_ROLLBACK)
    assert {e.pid for e in rolls} == {0, 1, 2, 3}
    check_no_dangling_receives(procs.values())


def test_concurrent_requests_serialised():
    sim, procs = build()
    sim.scheduler.at(2.0, lambda: procs[1].initiate_checkpoint())
    sim.scheduler.at(2.0, lambda: procs[2].initiate_checkpoint())
    sim.run(until=120.0)
    # Both ran, one after the other: two committed generations.
    commits = [e for e in sim.trace.index.by_kind(T.K_CHKPT_COMMIT) if e.pid == 0]
    assert len(commits) == 2
    check_c1(procs.values())


def test_blocking_between_tentative_and_commit():
    sim, procs = build()
    sim.scheduler.at(2.0, lambda: procs[0].initiate_checkpoint())
    sim.run(until=60.0)
    stats = collect(sim)
    assert stats.send_blocked_time > 0


def test_randomized_consistency():
    for seed in range(6):
        sim, procs = build(n=5, seed=seed)
        run_random_workload(sim, procs, duration=40.0, checkpoint_rate=0.05,
                            error_rate=0.02, horizon=300.0)
        check_c1(procs.values())
        check_no_dangling_receives(procs.values())
