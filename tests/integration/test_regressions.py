"""Regression suite: the adversarial seeds that exposed protocol races.

Each seed below, under exactly this configuration, triggered a specific
protocol bug during development (see DESIGN.md §5, notes 7-17).  They are
pinned here so that reverting any of the fixes fails loudly:

* 26, 35, 65, 83, 136 — the neg_ack/roll_req race and the stale-membership
  C1 holes (notes 8-9);
* 87, 159, 164, 208 — late-child decision forwarding (note 11);
* 107 — cross-instance commit forwarding through resolved nodes (note 11);
* 309 — the cross-round gating cycle (note 10);
* failure seeds 0, 17, 24, 27, 32, 34, 45, 50, 55 — spooled roll_reqs,
  rule-4 uncertainty, rule-5 substitutes masked by rule 2, stranded
  intervals, shared-checkpoint recovery (notes 12-13 and the Section 6
  handler fixes);
* the ``LEAVE_CASES`` — instances open across a graceful departure
  (DESIGN.md §15, the departed-parent rules).
"""

import pytest

from repro.analysis import check_app_states, check_quiescent, check_recovery_line
from repro.core import CheckpointProcess, ProtocolConfig
from repro.failure import FailureInjector
from repro.net import ExponentialDelay
from repro.testing import build_sim, run_random_workload
from repro.workloads import RandomPeerWorkload

BASE_SEEDS = [26, 35, 65, 83, 87, 107, 136, 159, 164, 208, 309]
FAILURE_SEEDS = [0, 17, 24, 27, 32, 34, 45, 50, 55]


@pytest.mark.parametrize("seed", BASE_SEEDS)
def test_base_protocol_adversarial_seed(seed):
    sim, procs = build_sim(n=6, seed=seed, delay=ExponentialDelay(mean=1.0))
    run_random_workload(sim, procs, duration=60.0, message_rate=1.0,
                        checkpoint_rate=0.05, error_rate=0.02,
                        max_events=400000)
    check_quiescent(procs.values())
    check_recovery_line(procs.values())
    check_app_states(procs.values())


@pytest.mark.parametrize("seed", FAILURE_SEEDS)
def test_failure_handling_adversarial_seed(seed):
    sim, procs = build_sim(
        n=6, seed=seed, delay=ExponentialDelay(mean=1.0),
        config=ProtocolConfig(failure_resilience=True),
        detector_latency=2.0, spoolers=True,
    )
    inj = FailureInjector(sim)
    inj.crash_at(20.0, pid=seed % 6)
    inj.crash_at(25.0, pid=(seed + 3) % 6)
    inj.recover_at(45.0, pid=seed % 6)
    inj.recover_at(50.0, pid=(seed + 3) % 6)
    run_random_workload(sim, procs, duration=60.0, checkpoint_rate=0.05,
                        error_rate=0.01, horizon=400.0, max_events=500000)
    alive = [p for p in procs.values() if not p.crashed]
    for p in alive:
        assert not p.comm_suspended and not p.send_suspended, f"P{p.node_id} stuck"
    check_recovery_line(alive)
    check_app_states(alive)


def test_extension_adversarial_seeds():
    from repro.core import ExtendedCheckpointProcess

    for seed in (2, 5, 12, 55, 87):
        sim, procs = build_sim(n=5, seed=seed, cls=ExtendedCheckpointProcess,
                               delay=ExponentialDelay(mean=1.0))
        run_random_workload(sim, procs, duration=50.0, checkpoint_rate=0.05,
                            error_rate=0.02, max_events=400000)
        for p in procs.values():
            assert not p.comm_suspended and not p.roll_restart_set
            assert not p.commit_sets, f"seed {seed}: pending {p.commit_sets}"
        check_recovery_line(procs.values())
        check_app_states(procs.values())


LEAVE_CASES = [
    # A parent departs while its child, still collecting acks (the parent
    # among its potential children), has not voted: dropping the parent as
    # a child first made the child vote to a pid that no longer exists.
    *[(3, "fixed", seed) for seed in range(8)],
    # A chkpt_req delivered after its sender departed recruited the receiver
    # into a round whose parent was already gone.
    (8, "fixed", 1), (8, "fixed", 5), (8, "fixed", 19),
    # A rule-6 commit reply for a tree whose shared checkpoint had already
    # committed through another instance left that tree's rounds open.
    (8, "exponential", 0), (8, "exponential", 9), (8, "exponential", 56),
    # A root that decided by forwarding (its own checkpoint committed
    # elsewhere) did not remember the decision, so the inquiry of a child
    # orphaned by the departure was never answered.
    (8, "exponential", 12), (8, "exponential", 66), (8, "exponential", 70),
]


@pytest.mark.parametrize("n,delay,seed", LEAVE_CASES)
def test_graceful_leave_mid_instance_strands_nobody(n, delay, seed):
    # The default `python -m repro.runtime --join N@8 --leave 1@16:0` demo
    # on the simulator: before the departed-parent rules (DESIGN.md §15)
    # survivors ended the run holding open rounds of the departed pid's
    # trees and, under an uncommitted checkpoint, queued sends forever.
    sim, procs = build_sim(
        n=n, seed=seed,
        delay=ExponentialDelay(mean=0.8) if delay == "exponential" else None,
        config=ProtocolConfig(checkpoint_interval=7.5, failure_resilience=True),
        detector_latency=2.0, spoolers=True,
    )
    RandomPeerWorkload(message_rate=1.0, step_rate=0.5, duration=30.0).install(sim, procs)

    def join():
        procs[n] = sim.join_node(CheckpointProcess(n, procs[0].config))

    def leave():
        sim.leave_node(1, successor=0)
        del procs[1]

    def stop_autonomous():
        for proc in procs.values():
            proc.engine.autonomous_checkpoints = False

    sim.scheduler.at(8.0, join)
    sim.scheduler.at(16.0, leave)
    sim.scheduler.at(30.0, stop_autonomous)
    sim.run(until=120.0)

    for proc in procs.values():
        still_open = [s.tree for s in proc.engine.trees.all_chkpt_rounds() if not s.closed]
        still_open += [s.tree for s in proc.engine.trees.roll.values() if not s.closed]
        assert not still_open, f"P{proc.node_id} holds open rounds {still_open}"
        assert not proc.send_suspended, f"P{proc.node_id} is still send-suspended"
        assert not proc.engine.output_queue
    check_recovery_line(procs.values())
