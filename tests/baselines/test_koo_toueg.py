"""Tests for the Koo-Toueg baseline: single instance, reject-and-retry."""

from repro import tracekinds as T
from repro.analysis import check_c1, check_no_dangling_receives, collect
from repro.baselines import KooTouegProcess
from repro.net import UniformDelay
from repro.testing import build_sim, run_random_workload


def build(n=4, seed=0):
    return build_sim(n=n, seed=seed, fifo=True, cls=KooTouegProcess,
                     delay=UniformDelay(0.4, 0.8))


def test_single_instance_commits_like_leu_bhargava():
    sim, procs = build()
    sim.scheduler.at(1.0, lambda: procs[0].send_app_message(1, "m"))
    sim.scheduler.at(3.0, lambda: procs[1].initiate_checkpoint())
    sim.run(until=60.0)
    assert procs[0].store.oldchkpt.seq == 2
    assert procs[1].store.oldchkpt.seq == 2
    check_c1(procs.values())


def test_concurrent_instances_cause_rejections():
    """Two simultaneous initiators sharing a member: at least one instance
    is rejected — the concurrency limitation Leu-Bhargava removes."""
    rejections = 0
    for seed in range(8):
        sim, procs = build(seed=seed)
        sim.scheduler.at(1.0, lambda: procs[0].send_app_message(1, "x"))
        sim.scheduler.at(1.0, lambda: procs[0].send_app_message(2, "y"))
        sim.scheduler.at(3.0, lambda: procs[1].initiate_checkpoint())
        sim.scheduler.at(3.0, lambda: procs[2].initiate_checkpoint())
        sim.run(until=120.0)
        rejections += len(sim.trace.index.by_kind(T.K_INSTANCE_REJECTED))
        check_c1(procs.values())
    assert rejections > 0


def test_rejected_initiator_retries_and_eventually_commits():
    sim, procs = build(seed=3)
    sim.scheduler.at(1.0, lambda: procs[0].send_app_message(1, "x"))
    sim.scheduler.at(1.0, lambda: procs[0].send_app_message(2, "y"))
    sim.scheduler.at(3.0, lambda: procs[1].initiate_checkpoint())
    sim.scheduler.at(3.0, lambda: procs[2].initiate_checkpoint())
    sim.run(until=200.0)
    # Both initiators' checkpoints exist in the end (retry succeeded).
    assert procs[1].store.oldchkpt.seq >= 2
    assert procs[2].store.oldchkpt.seq >= 2


def test_rollback_preempts_checkpointing():
    sim, procs = build(seed=1)
    sim.scheduler.at(1.0, lambda: procs[0].send_app_message(1, "m"))
    sim.scheduler.at(3.0, lambda: procs[1].initiate_checkpoint())
    sim.scheduler.at(3.1, lambda: procs[0].initiate_rollback())
    sim.run(until=200.0)
    check_no_dangling_receives(procs.values())
    for p in procs.values():
        assert not p.comm_suspended


def test_randomized_consistency_under_contention():
    for seed in range(6):
        sim, procs = build(n=5, seed=seed)
        run_random_workload(sim, procs, duration=40.0, checkpoint_rate=0.06,
                            error_rate=0.02, horizon=300.0)
        check_c1(procs.values())
        check_no_dangling_receives(procs.values())


def test_stats_show_rejections_under_contention():
    sim, procs = build(n=6, seed=2)
    run_random_workload(sim, procs, duration=60.0, checkpoint_rate=0.08,
                        error_rate=0.02, horizon=300.0)
    stats = collect(sim)
    assert stats.instances_rejected > 0  # the Koo-Toueg signature
