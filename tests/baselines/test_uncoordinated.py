"""Tests for the uncoordinated baseline and its domino behaviour."""

from repro.analysis import domino_metrics
from repro.baselines import UncoordinatedProcess
from repro.core import CheckpointProcess
from repro.testing import build_sim, run_random_workload


def test_checkpoints_are_local_and_instant():
    sim, procs = build_sim(n=3, seed=0, cls=UncoordinatedProcess)
    sim.scheduler.at(1.0, lambda: procs[0].send_app_message(1, "m"))
    sim.scheduler.at(3.0, lambda: procs[1].initiate_checkpoint())
    sim.run()
    assert procs[1].store.oldchkpt.seq == 2
    assert procs[0].store.oldchkpt.seq == 1  # nobody else forced
    assert sim.network.control_sent == 0     # zero protocol messages


def test_history_grows_unboundedly():
    sim, procs = build_sim(n=2, seed=0, cls=UncoordinatedProcess)
    for k in range(5):
        sim.scheduler.at(float(k + 1), lambda: procs[0].initiate_checkpoint())
    sim.run()
    assert len(procs[0].committed_history) == 6  # birth + 5


def test_rollback_leaves_peers_inconsistent():
    """The point of the baseline: local rollback creates orphans."""
    sim, procs = build_sim(n=2, seed=0, cls=UncoordinatedProcess)
    sim.scheduler.at(1.0, lambda: procs[0].send_app_message(1, "m"))
    sim.scheduler.at(3.0, lambda: procs[0].initiate_rollback())
    sim.run()
    # P1 still holds the receive of the undone message: a dangling receive,
    # which the offline recovery-line analysis must detect and repair.
    undone = [r for r in procs[0].ledger.sent if r.undone]
    assert undone
    assert any(not r.undone for r in procs[1].ledger.received)


def test_domino_dragging_grows_with_message_rate():
    def drag(rate, seed):
        sim, procs = build_sim(n=5, seed=seed, cls=UncoordinatedProcess)
        run_random_workload(sim, procs, duration=40.0,
                            message_rate=rate, checkpoint_rate=0.2)
        return domino_metrics(procs.values(), initiator=0)["mean_distance"]

    quiet = sum(drag(0.05, s) for s in range(5))
    chatty = sum(drag(2.0, s) for s in range(5))
    assert chatty > quiet


def test_coordinated_rollback_distance_is_bounded():
    """Contrast: Leu-Bhargava never discards committed checkpoints."""
    sim, procs = build_sim(n=4, seed=1)
    run_random_workload(sim, procs, duration=40.0, checkpoint_rate=0.1,
                        error_rate=0.02)
    metrics = domino_metrics(procs.values(), initiator=0)
    assert metrics["max_distance"] == 0  # the committed line IS consistent
