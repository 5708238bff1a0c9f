"""Scenario tests for the Section 6 failure-resilience rules."""

from repro.analysis import (
    check_app_states,
    check_no_dangling_receives,
    check_recovery_line,
)
from repro import tracekinds as T
from repro.core import CheckpointProcess, ProtocolConfig
from repro.testing import build_sim


def build(n=4, seed=0):
    return build_sim(
        n=n,
        seed=seed,
        config=ProtocolConfig(failure_resilience=True),
        detector_latency=1.0,
        spoolers=True,
    )


def at(sim, t, fn):
    sim.scheduler.at(t, fn)


def quiesced(procs):
    for p in procs.values():
        if p.crashed:
            continue
        assert not p.comm_suspended, f"P{p.node_id} comm stuck"
        assert not p.send_suspended, f"P{p.node_id} send stuck"


def test_rule1_dead_child_aborts_instance_and_rolls_back():
    sim, procs = build()
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "m"))
    at(sim, 2.0, lambda: sim.crash(0))          # the would-be child dies
    at(sim, 4.0, lambda: procs[1].initiate_checkpoint())
    sim.run(until=60.0)
    # The instance cannot complete without P0; rule 1 aborts it and P1
    # rolls back.
    assert procs[1].store.newchkpt is None
    aborts = sim.trace.index.for_process(1, T.K_CHKPT_ABORT)
    assert aborts
    rolls = [e for e in sim.trace.index.by_kind(T.K_INSTANCE_START)
             if e.fields["instance"] == "rollback" and e.pid == 1]
    assert rolls
    quiesced(procs)


def test_rule2_dead_roll_child_excluded():
    sim, procs = build()
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "m"))
    at(sim, 3.0, lambda: sim.crash(1))           # receiver dies
    at(sim, 5.0, lambda: procs[0].initiate_rollback())
    sim.run(until=60.0)
    # P0's rollback completes despite P1 being down.
    assert not procs[0].comm_suspended
    assert not procs[0].roll_restart_set


def test_rule3_recovering_process_rolls_back():
    sim, procs = build()
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "m"))
    at(sim, 3.0, lambda: sim.crash(1))
    at(sim, 10.0, lambda: sim.recover(1))
    sim.run(until=60.0)
    rolls = [e for e in sim.trace.index.by_kind(T.K_ROLLBACK) if e.pid == 1]
    assert rolls and rolls[0].time >= 10.0
    quiesced(procs)
    check_recovery_line([p for p in procs.values() if not p.crashed])


def test_rule3_recovering_initiator_aborts_own_tentative():
    sim, procs = build()
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "m"))
    # P1 initiates; crash it immediately so its instance stays undecided.
    at(sim, 3.0, lambda: procs[1].initiate_checkpoint())
    at(sim, 3.05, lambda: sim.crash(1))
    at(sim, 20.0, lambda: sim.recover(1))
    sim.run(until=80.0)
    assert procs[1].store.newchkpt is None
    quiesced(procs)
    check_recovery_line(procs.values())
    check_no_dangling_receives(procs.values())


def test_rule3_spooled_messages_replayed_after_recovery():
    sim, procs = build()
    at(sim, 2.0, lambda: sim.crash(1))
    at(sim, 5.0, lambda: procs[0].send_app_message(1, "while-down"))
    at(sim, 20.0, lambda: sim.recover(1))
    sim.run(until=80.0)
    # The spooled message was consumed after the recovery rollback.
    assert any(r.src == 0 for r in procs[1].ledger.live_receives())
    check_app_states([p for p in procs.values() if not p.crashed])


def test_voted_child_waits_for_dead_initiator_then_resolves():
    """The initiator dies after our vote: the decision may exist (perhaps
    only in the dead process's stable storage), so the child must WAIT —
    the paper's explicit rule — and resolve once the initiator recovers
    (rule 3 makes a restarting initiator abort its own instance)."""
    sim, procs = build()
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "m"))
    at(sim, 3.0, lambda: procs[1].initiate_checkpoint())
    at(sim, 3.2, lambda: sim.crash(1))   # initiator dies mid-instance
    sim.run(until=30.0)
    # While the initiator is down, P0 holds its tentative and keeps asking.
    assert procs[0].store.newchkpt is not None
    assert sim.trace.index.by_kind("ctrl_send")  # inquiries in flight
    sim.scheduler.at(31.0, lambda: sim.recover(1))
    sim.run(until=120.0)
    # The recovered initiator aborted its own instance; P0's inquiry found
    # the abort and the tentative is gone.
    assert procs[0].store.newchkpt is None
    quiesced(procs)
    check_recovery_line([p for p in procs.values() if not p.crashed])


def test_unvoted_child_aborts_when_initiator_dies():
    """Rule 4 proper: the initiator dies while we are still collecting our
    own subtree's acks (not yet voted) — it cannot have committed, so the
    instance aborts under the children's control without waiting."""
    sim, procs = build()
    # P2 -> P0 gives P0 a potential child of its own, so P0's vote waits.
    at(sim, 0.5, lambda: procs[2].send_app_message(0, "dep"))
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "m"))
    at(sim, 3.0, lambda: procs[1].initiate_checkpoint())
    # P2 is slow to answer (we crash the initiator before acks complete).
    at(sim, 3.2, lambda: sim.crash(1))
    sim.run(until=120.0)
    assert procs[0].store.newchkpt is None
    quiesced(procs)


def test_rule5_substitute_restarts_subtree_when_roll_initiator_dies():
    sim, procs = build()
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "a"))
    at(sim, 1.5, lambda: procs[1].send_app_message(2, "b"))
    at(sim, 4.0, lambda: procs[0].initiate_rollback())
    at(sim, 4.3, lambda: sim.crash(0))   # initiator dies before restart
    sim.run(until=80.0)
    # P1 and P2 must still resume (substitution, rule 5).
    assert not procs[1].comm_suspended
    assert not procs[2].comm_suspended
    check_no_dangling_receives([p for p in procs.values() if not p.crashed])


def test_rule6_decision_found_by_inquiry():
    """An intermediate parent dies after the commit was decided; the
    orphaned child finds the decision by asking around."""
    sim, procs = build()
    # Chain: P2's instance recruits P1 (via message P1->P2) which recruits
    # P0 (via message P0->P1).
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "a"))
    at(sim, 1.5, lambda: procs[1].send_app_message(2, "b"))
    at(sim, 4.0, lambda: procs[2].initiate_checkpoint())
    # Kill the intermediate parent just after the decision leaves the root.
    at(sim, 6.2, lambda: sim.crash(1) if sim.is_alive(1) else None)
    sim.run(until=120.0)
    # P0 eventually resolves its checkpoint one way or the other.
    assert procs[0].store.newchkpt is None
    quiesced(procs)
    check_recovery_line([p for p in procs.values() if not p.crashed])


def test_decisions_persist_across_crash():
    sim, procs = build()
    at(sim, 1.0, lambda: procs[0].send_app_message(1, "m"))
    at(sim, 3.0, lambda: procs[1].initiate_checkpoint())
    sim.run(until=10.0)
    decided = dict(procs[1].decisions_seen)
    assert decided
    sim.crash(1)
    sim.recover(1)
    sim.run(until=60.0)
    for tree, decision in decided.items():
        assert procs[1].decisions_seen.get(tree) == decision


def test_multiple_failures_system_stays_consistent():
    for seed in range(5):
        sim, procs = build(n=5, seed=seed)
        from repro.testing import run_random_workload
        from repro.failure import FailureInjector

        inj = FailureInjector(sim)
        inj.crash_at(15.0, pid=seed % 5)
        inj.crash_at(18.0, pid=(seed + 2) % 5)
        inj.recover_at(35.0, pid=seed % 5)
        inj.recover_at(40.0, pid=(seed + 2) % 5)
        run_random_workload(
            sim, procs, duration=50.0, checkpoint_rate=0.05,
            error_rate=0.01, horizon=300.0,
        )
        alive = [p for p in procs.values() if not p.crashed]
        quiesced(procs)
        check_recovery_line(alive)
        check_app_states(alive)
