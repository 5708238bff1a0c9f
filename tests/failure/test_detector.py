"""Unit tests for the failure detector and injector."""

from repro.failure import FailureDetector, FailureInjector
from repro.net import FixedDelay
from repro.sim import Node, Simulation


class Watcher(Node):
    def __init__(self, nid):
        super().__init__(nid)
        self.crash_notices = []
        self.recovery_notices = []

    def on_failure_notice(self, pid):
        self.crash_notices.append((pid, self.sim.now))

    def on_recovery_notice(self, pid):
        self.recovery_notices.append((pid, self.sim.now))


def make(n=3, latency=2.0):
    sim = Simulation(seed=0, delay_model=FixedDelay(1.0))
    nodes = [sim.add_node(Watcher(i)) for i in range(n)]
    detector = FailureDetector(sim, detection_latency=latency)
    return sim, nodes, detector


def test_crash_notices_delivered_after_latency():
    sim, nodes, _ = make()
    sim.scheduler.at(5.0, lambda: sim.crash(0))
    sim.run()
    assert nodes[1].crash_notices == [(0, 7.0)]
    assert nodes[2].crash_notices == [(0, 7.0)]
    assert nodes[0].crash_notices == []  # no self-notice


def test_recovery_notices():
    sim, nodes, _ = make()
    sim.scheduler.at(5.0, lambda: sim.crash(0))
    sim.scheduler.at(10.0, lambda: sim.recover(0))
    sim.run()
    assert nodes[1].recovery_notices == [(0, 12.0)]


def test_fast_recovery_suppresses_stale_crash_notice():
    sim, nodes, _ = make(latency=5.0)
    sim.scheduler.at(1.0, lambda: sim.crash(0))
    sim.scheduler.at(2.0, lambda: sim.recover(0))
    sim.run()
    # The crash notice at t=6 is suppressed (node already back).
    assert nodes[1].crash_notices == []


def test_crashed_watchers_not_notified():
    sim, nodes, _ = make()
    sim.scheduler.at(4.0, lambda: sim.crash(1))
    sim.scheduler.at(5.0, lambda: sim.crash(0))
    sim.run()
    assert nodes[1].crash_notices == []  # was down at notice time
    assert nodes[2].crash_notices == [(1, 6.0), (0, 7.0)]


def test_status_snapshot_and_believed_down():
    sim, nodes, detector = make()
    sim.scheduler.at(1.0, lambda: sim.crash(2))
    sim.run()
    snap = detector.status_snapshot()
    assert snap == {0: True, 1: True, 2: False}
    assert detector.believed_down() == {2}


def test_injector_schedules():
    sim, nodes, detector = make()
    injector = FailureInjector(sim)
    injector.crash_at(3.0, pid=1)
    injector.recover_at(8.0, pid=1)
    sim.run()
    crash = sim.trace.index.last_of("crash")
    recover = sim.trace.index.last_of("recover")
    assert crash.pid == 1 and crash.time == 3.0
    assert recover.pid == 1 and recover.time == 8.0


def test_injector_tolerates_redundant_events():
    sim, nodes, _ = make()
    injector = FailureInjector(sim)
    injector.crash_at(3.0, pid=1)
    injector.crash_at(4.0, pid=1)    # already down: no-op
    injector.recover_at(8.0, pid=1)
    injector.recover_at(9.0, pid=1)  # already up: no-op
    sim.run()
    assert len(sim.trace.index.by_kind("crash")) == 1
    assert len(sim.trace.index.by_kind("recover")) == 1


def test_injector_partition_schedule():
    sim, nodes, _ = make()
    injector = FailureInjector(sim)
    injector.partition_at(2.0, [{0}, {1, 2}])
    injector.merge_at(5.0)
    sim.run()
    assert len(sim.trace.index.by_kind("partition")) == 1
    assert len(sim.trace.index.by_kind("merge")) == 1
