"""The detector's ``views()`` pair is cached under the kernel's liveness
generation; these tests pin the cache to the uncached recomputation.

A missed ``liveness_changed()`` at any transition would hand engines a stale
``down`` set, so the property tests drive every kind of transition in random
order and compare after each step.  Transitions bump in pairs (``crash`` flips
the flag, then the detector records its belief), and a cold cache would hide
a bump missing from one half — so :func:`every_view_checked` warms the cache
at every bump and checks every pair handed out, mid-transition ones included.
"""

from contextlib import contextmanager
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CheckpointProcess, PartitionCoordinator, ProtocolConfig
from repro.failure import FailureDetector, FailureInjector, VoteRegistry
from repro.kernel import KernelCore
from repro.runtime.shard import ShardRuntime
from repro.testing import build_sim, run_random_workload

CONFIG = ProtocolConfig(failure_resilience=True)


def recomputed(detector):
    """What ``views()`` must equal: the pair as built before it was cached."""
    return (
        frozenset(detector.believed_down()),
        tuple(pid for pid, up in detector.status_snapshot().items() if not up),
    )


@contextmanager
def every_view_checked():
    bump, views = KernelCore.liveness_changed, FailureDetector.views
    process_ids = KernelCore.process_ids.fget

    def warming_bump(kernel):
        bump(kernel)
        kernel.process_ids
        if kernel.failure_detector is not None:
            kernel.failure_detector.views()

    def checked_views(detector):
        pair = views(detector)
        assert pair == recomputed(detector)
        return pair

    def checked_process_ids(kernel):
        pids = process_ids(kernel)
        assert pids == sorted(kernel.nodes)
        return pids

    with patch.object(KernelCore, "liveness_changed", warming_bump), \
            patch.object(KernelCore, "process_ids", property(checked_process_ids)), \
            patch.object(FailureDetector, "views", checked_views):
        yield


def assert_views_fresh(sim):
    sim.failure_detector.views()  # the checked wrappers compare both
    sim.process_ids


SIM_OPS = st.lists(
    st.tuples(
        st.sampled_from(["crash", "recover", "join", "leave", "split", "heal", "run"]),
        st.integers(0, 11),
    ),
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(ops=SIM_OPS)
def test_sim_views_match_recomputation_after_every_transition(ops):
    with every_view_checked():
        drive_sim(ops)


def drive_sim(ops):
    sim, _procs = build_sim(n=4, config=CONFIG, detector_latency=1.0, spoolers=True)
    coord = PartitionCoordinator(sim, VoteRegistry.uniform(range(4)))
    next_pid = 4
    anyone_left = False  # the network cannot place a departed pid in a partition group
    assert_views_fresh(sim)
    for op, arg in ops:
        pids = sim.process_ids
        pid = pids[arg % len(pids)]
        alive = sim.alive_processes()
        if op == "crash" and sim.is_alive(pid):
            sim.crash(pid)
        elif op == "recover" and not sim.is_alive(pid) and pid not in coord.dormant:
            sim.recover(pid)
        elif op == "join" and not sim.network.partitioned:
            sim.join_node(CheckpointProcess(next_pid, CONFIG))
            next_pid += 1
        elif op == "leave" and not sim.network.partitioned and pid in alive and len(pids) > 2:
            others = [p for p in alive if p != pid]
            sim.leave_node(pid, others[0] if others else None)
            anyone_left = True
        elif op == "split" and not sim.network.partitioned and not anyone_left:
            cut = 1 + arg % (len(pids) - 1)
            coord.split([set(pids[:cut]), set(pids[cut:])])
        elif op == "heal" and sim.network.partitioned:
            coord.heal()
        elif op == "run":
            sim.run(until=sim.now + 0.4 * (1 + arg))  # lets detector notices fire
        assert_views_fresh(sim)


SHARD_OPS = st.lists(
    st.tuples(
        st.sampled_from([
            "remote_down", "remote_up", "flag_down", "flag_up", "admit", "retire",
            "crash", "recover", "join", "leave",
        ]),
        st.integers(0, 11),
    ),
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(ops=SHARD_OPS)
def test_shard_runtime_views_match_recomputation_after_every_transition(ops):
    with every_view_checked():
        drive_shard_runtime(ops)


def shard_runtime():
    """A shard kernel hosting pids 0-2 of a six-pid cluster, started."""
    runtime = ShardRuntime(all_pids=list(range(6)))
    for pid in (0, 1, 2):
        runtime.add_node(CheckpointProcess(pid, CONFIG))
    detector = FailureDetector(runtime, detection_latency=1.0)
    for pid in sorted(runtime.nodes):  # what start() does, minus the event loop
        runtime.nodes[pid].on_start()
    return runtime, detector


def drive_shard_runtime(ops):
    runtime, detector = shard_runtime()
    next_pid = 6
    detector.views()
    for op, arg in ops:
        remote = [p for p in runtime.process_ids if p not in runtime.nodes]
        local = sorted(runtime.nodes)
        if op in ("remote_down", "remote_up") and remote:
            # What ShardWorker.notice_remote does at the transition time.
            pid, up = remote[arg % len(remote)], op == "remote_up"
            runtime.set_remote_alive(pid, up)
            (detector.report_recovery if up else detector.report_crash)(pid)
        elif op in ("flag_down", "flag_up"):
            # The flag alone, and possibly about a pid whose join notice is
            # still on its way (it must already read as down once admitted).
            candidates = remote + [next_pid]
            runtime.set_remote_alive(candidates[arg % len(candidates)], op == "flag_up")
        elif op == "admit":
            runtime.admit_pid(next_pid)
            next_pid += 1
        elif op == "retire" and remote:
            runtime.retire_pid(remote[arg % len(remote)])
        elif op == "join":
            runtime.join_node(CheckpointProcess(next_pid, CONFIG))
            next_pid += 1
        elif op == "leave" and len(local) > 1 and runtime.is_alive(local[arg % len(local)]):
            runtime.leave_node(local[arg % len(local)])
        elif op == "crash" and runtime.is_alive(local[arg % len(local)]):
            runtime.crash(local[arg % len(local)])
        elif op == "recover" and not runtime.is_alive(local[arg % len(local)]):
            runtime.recover(local[arg % len(local)])
        detector.views()


def test_hosted_churn_on_a_shard_kernel_keeps_beliefs_about_remote_pids():
    """The shard kernel's plane is the whole cluster: the view a hosted join
    or leave publishes must not read every remote pid as a non-member and
    prune it from ``believed_down``."""

    class Joiner(CheckpointProcess):
        def on_start(self):
            self.peers_at_start = self.sim.process_ids
            super().on_start()

    runtime, detector = shard_runtime()
    runtime.set_remote_alive(4, False)
    detector.report_crash(4)
    assert detector.views() == (frozenset({4}), (4,))
    joiner = runtime.join_node(Joiner(6, CONFIG))
    assert detector.views() == (frozenset({4}), (4,))
    assert 6 in joiner.peers_at_start  # a peer from its own on_start on
    runtime.leave_node(1)
    assert detector.views() == (frozenset({4}), (4,))
    assert runtime.process_ids == [0, 2, 3, 4, 5, 6]
    assert runtime.membership.is_departed(1) and not runtime.is_member(1)


def test_partition_merge_cycle_leaves_views_fresh():
    """Dormancy flips ``crashed`` outside crash()/recover(); it must still
    move the generation, or majority engines keep a pre-split ``down`` set."""
    sim, _procs = build_sim(n=5, config=CONFIG, detector_latency=1.0, spoolers=True)
    coord = PartitionCoordinator(sim, VoteRegistry.uniform(range(5)))
    detector = sim.failure_detector
    with every_view_checked():
        assert detector.views() == (frozenset(), ())
        coord.split([{0, 1, 2}, {3, 4}])
        assert detector.views() == (frozenset({3, 4}), (3, 4))
        sim.run(until=10.0)
        assert_views_fresh(sim)
        coord.heal()
        assert detector.views() == (frozenset(), ())
        sim.run(until=40.0)
        assert_views_fresh(sim)


def test_views_are_shared_between_transitions():
    sim, _procs = build_sim(n=3, config=CONFIG, detector_latency=1.0)
    detector = sim.failure_detector
    first = detector.views()
    assert detector.views() is first  # one immutable pair per generation
    sim.crash(1)
    assert detector.views() is not first
    assert detector.views() == (frozenset({1}), (1,))


def test_status_snapshot_calls_scale_with_transitions_not_events(monkeypatch):
    calls = []
    original = FailureDetector.status_snapshot

    def counted_snapshot(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(FailureDetector, "status_snapshot", counted_snapshot)
    sim, procs = build_sim(n=8, seed=3, config=CONFIG, detector_latency=1.0, spoolers=True)
    injector = FailureInjector(sim)
    injector.crash_at(20.0, pid=2)
    injector.recover_at(30.0, pid=2)
    run_random_workload(sim, procs, duration=60.0, message_rate=6.0, checkpoint_rate=0.05,
                        horizon=80.0)
    assert sim.scheduler.events_processed >= 5000
    # At most one rebuild per generation, whatever the event count.
    assert 1 <= len(calls) <= sim.liveness_generation < 40
