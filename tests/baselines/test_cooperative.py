"""Tests for the cooperative partial-snapshot baseline (arXiv:2103.15285)."""

from repro import tracekinds as T
from repro.analysis import check_c1
from repro.baselines import CooperativeProcess
from repro.net import UniformDelay
from repro.testing import build_sim, run_random_workload


def build(n=4, seed=0):
    return build_sim(n=n, seed=seed, fifo=True, cls=CooperativeProcess,
                     delay=UniformDelay(0.4, 0.8))


def test_snapshot_scope_is_the_dependency_set():
    # Only 0 and 1 communicate; 2 and 3 are bystanders and must not be
    # recruited — the defining contrast with Chandy-Lamport.
    sim, procs = build()
    sim.scheduler.at(1.0, lambda: procs[0].send_app_message(1, "m"))
    sim.scheduler.at(3.0, lambda: procs[0].initiate_checkpoint())
    sim.run(until=60.0)
    commits = sim.trace.index.by_kind(T.K_CHKPT_COMMIT)
    assert {e.pid for e in commits} == {0, 1}
    assert procs[0].snapshot_group_sizes == [2]


def test_group_expands_transitively():
    # 0 -> 1 -> 2: the initiator only knows about 1, but 1's own dependency
    # set pulls 2 in; 3 stays out.
    sim, procs = build()
    sim.scheduler.at(1.0, lambda: procs[0].send_app_message(1, "a"))
    sim.scheduler.at(2.0, lambda: procs[1].send_app_message(2, "b"))
    sim.scheduler.at(4.0, lambda: procs[0].initiate_checkpoint())
    sim.run(until=60.0)
    commits = sim.trace.index.by_kind(T.K_CHKPT_COMMIT)
    assert {e.pid for e in commits} == {0, 1, 2}
    assert procs[0].snapshot_group_sizes == [3]


def test_concurrent_instances_cooperate_by_sharing_checkpoints():
    # 0 and 1 initiate nearly simultaneously over the same dependency
    # edge.  Cooperation means neither aborts: both instances commit, yet
    # each process takes exactly ONE tentative checkpoint (the overlap
    # borrows it instead of taking a second).
    sim, procs = build()
    sim.scheduler.at(1.0, lambda: procs[0].send_app_message(1, "m"))
    sim.scheduler.at(3.0, lambda: procs[0].initiate_checkpoint())
    sim.scheduler.at(3.0, lambda: procs[1].initiate_checkpoint())
    sim.run(until=60.0)
    instance_commits = sim.trace.index.by_kind(T.K_INSTANCE_COMMIT)
    assert len(instance_commits) == 2
    for pid in (0, 1):
        tentatives = [e for e in sim.trace.index.by_kind(T.K_CHKPT_TENTATIVE)
                      if e.pid == pid]
        assert len(tentatives) == 1
    aborts = sim.trace.index.by_kind(T.K_INSTANCE_ABORT)
    assert not aborts


def test_empty_dependency_set_commits_locally():
    sim, procs = build()
    sim.scheduler.at(1.0, lambda: procs[3].initiate_checkpoint())
    sim.run(until=30.0)
    commits = sim.trace.index.by_kind(T.K_CHKPT_COMMIT)
    assert {e.pid for e in commits} == {3}
    assert procs[3].snapshot_group_sizes == [1]


def test_no_rollback_support():
    sim, procs = build()
    assert procs[0].initiate_rollback() is None


def test_graceful_leave_unblocks_open_groups():
    # 2 is in 0's dependency set but departs before the snapshot request
    # settles; the instance must complete without it rather than wedge
    # until the abort timeout.
    sim, procs = build()
    sim.scheduler.at(1.0, lambda: procs[0].send_app_message(2, "m"))
    sim.scheduler.at(3.0, lambda: procs[0].initiate_checkpoint())
    sim.scheduler.at(3.05, lambda: sim.leave_node(2, successor=0))
    sim.run(until=80.0)
    instance_commits = [e for e in sim.trace.index.by_kind(T.K_INSTANCE_COMMIT)
                        if e.pid == 0]
    assert len(instance_commits) == 1


def test_randomized_snapshots_consistent():
    for seed in range(5):
        sim, procs = build(n=5, seed=seed)
        run_random_workload(sim, procs, duration=40.0, checkpoint_rate=0.05)
        check_c1(procs.values())
