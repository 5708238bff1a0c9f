"""Unit tests for recovery-line computation and domino metrics."""

from repro.analysis.domino import (
    CheckpointView,
    domino_metrics,
    histories_from_trace,
    recovery_line,
    rollback_distance,
    views_from_history,
)
from repro.baselines import UncoordinatedProcess
from repro.testing import build_sim, run_random_workload


def test_consistent_start_is_fixpoint():
    histories = {
        0: [CheckpointView(1, set(), set()), CheckpointView(2, set(), {(0, 0)})],
        1: [CheckpointView(1, set(), set()), CheckpointView(2, {(0, 0)}, set())],
    }
    start = {0: 1, 1: 1}
    assert recovery_line(histories, start) == start


def test_orphan_demotes_receiver():
    histories = {
        0: [CheckpointView(1, set(), set())],                     # send not recorded
        1: [CheckpointView(1, set(), set()), CheckpointView(2, {(0, 0)}, set())],
    }
    line = recovery_line(histories, {0: 0, 1: 1})
    assert line == {0: 0, 1: 0}  # receiver dragged back


def test_cascade_demotion():
    """0's rollback orphans 1, whose demotion orphans 2 — the domino."""
    histories = {
        0: [CheckpointView(1, set(), set()), CheckpointView(2, set(), {(0, 0)})],
        1: [CheckpointView(1, set(), set()),
            CheckpointView(2, {(0, 0)}, set()),
            CheckpointView(3, {(0, 0)}, {(1, 0)})],
        2: [CheckpointView(1, set(), set()), CheckpointView(2, {(1, 0)}, set())],
    }
    # 0 restarts from its birth checkpoint (index 0): its send is undone.
    line = recovery_line(histories, {0: 0, 1: 2, 2: 1})
    assert line == {0: 0, 1: 0, 2: 0}
    distances = rollback_distance(histories, {0: 0, 1: 2, 2: 1}, line)
    assert distances == {0: 0, 1: 2, 2: 1}


def test_domino_metrics_on_uncoordinated_run():
    sim, procs = build_sim(n=4, seed=7, cls=UncoordinatedProcess)
    run_random_workload(sim, procs, duration=40.0, checkpoint_rate=0.1)
    metrics = domino_metrics(procs.values(), initiator=0)
    assert metrics["max_distance"] >= 0
    assert set(metrics["line"]) == {0, 1, 2, 3}


def test_histories_from_trace_match_the_processes_histories():
    sim, procs = build_sim(n=4, seed=7, cls=UncoordinatedProcess)
    run_random_workload(sim, procs, duration=40.0, checkpoint_rate=0.1)
    assert histories_from_trace(sim.trace) == {
        pid: views_from_history(proc) for pid, proc in procs.items()
    }


def test_views_from_history():
    sim, procs = build_sim(n=2, seed=7, cls=UncoordinatedProcess)
    sim.scheduler.at(1.0, lambda: procs[0].send_app_message(1, "m"))
    sim.scheduler.at(3.0, lambda: procs[0].initiate_checkpoint())
    sim.run()
    views = views_from_history(procs[0])
    assert len(views) == 2  # birth + taken
    assert (0, 0) in views[1].sent
