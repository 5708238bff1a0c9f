"""ClusterHarness: deterministic replay, stable choice keys, quiescence."""

from repro.mc import ClusterHarness, make_scenario
from repro.stable import CheckpointStore


def drain_fifo(harness):
    """Execute choices in sorted (FIFO-ish) order until quiescent."""
    schedule = []
    while not harness.quiescent:
        key = harness.enabled()[0]
        harness.execute(key)
        schedule.append(key)
    return schedule


def state_fingerprint(harness):
    return {
        pid: (
            engine.ledger.n,
            engine.store.oldchkpt.seq,
            tuple(r.seq for r in engine.committed_history),
            tuple(sorted(engine.decisions_seen.items())),
        )
        for pid, engine in harness.engines.items()
    }


def test_setup_sends_are_in_flight_and_keyed_per_channel():
    harness = ClusterHarness(make_scenario("concurrent", 3))
    message_keys = [k for k in harness.enabled() if k[0] == "m"]
    # One ring message per edge, each the 0th message on its channel.
    assert message_keys == [("m", 0, 1, 0), ("m", 1, 2, 0), ("m", 2, 0, 0)]
    action_keys = [k for k in harness.enabled() if k[0] == "a"]
    assert action_keys == [("a", 0), ("a", 1)]


def test_target_maps_delivery_to_dst_and_action_to_pid():
    scenario = make_scenario("concurrent", 3)
    harness = ClusterHarness(scenario)
    assert harness.target(("m", 0, 1, 0)) == 1
    assert harness.target(("a", 0)) == scenario.actions[0][0]


def test_identical_schedules_reproduce_identical_states():
    scenario = make_scenario("concurrent", 3)
    first = ClusterHarness(scenario)
    schedule = drain_fifo(first)

    second = ClusterHarness(scenario)
    for key in schedule:
        assert second.is_enabled(key)
        second.execute(key)

    assert second.quiescent
    assert state_fingerprint(first) == state_fingerprint(second)
    assert len(first.trace) == len(second.trace)


def test_run_reaches_quiescence_and_commits_the_checkpoint_instance():
    harness = ClusterHarness(make_scenario("isolated-checkpoint", 3))
    drain_fifo(harness)
    assert harness.quiescent
    committed = [
        pid
        for pid, engine in harness.engines.items()
        if engine.store.oldchkpt.seq > 1
    ]
    assert committed, "the initiated checkpoint instance never committed anywhere"


def test_at_quiescence_every_storage_holds_exactly_what_its_store_holds():
    harness = ClusterHarness(make_scenario("concurrent", 3))
    drain_fifo(harness)
    assert any(e.store.oldchkpt.seq > 1 for e in harness.engines.values())
    for engine in harness.engines.values():
        fresh = CheckpointStore(engine.storage)
        assert fresh.oldchkpt == engine.store.oldchkpt
        assert fresh.newchkpt == engine.store.newchkpt
