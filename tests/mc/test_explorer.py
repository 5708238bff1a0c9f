"""Explorer: exhaustive small scenarios, honest bounds, and POR soundness."""

import pytest

from repro.mc import Explorer, make_scenario


def test_isolated_checkpoint_explored_exhaustively_and_clean():
    explorer = Explorer(make_scenario("isolated-checkpoint", 3), depth_bound=20)
    result = explorer.run()
    assert result.violation is None
    assert result.truncated == 0, "small scenario should fit the bounds"
    assert result.exhaustive
    assert result.terminal > 0
    assert result.pruned > 0, "sleep sets should prune something non-trivial"


def test_isolated_rollback_explored_exhaustively_and_clean():
    explorer = Explorer(make_scenario("isolated-rollback", 3), depth_bound=20)
    result = explorer.run()
    assert result.violation is None
    assert result.exhaustive
    assert result.terminal > 0


@pytest.mark.parametrize("name, explored, terminal, pruned", [
    ("isolated-checkpoint", 137, 25, 50),
    ("isolated-rollback", 83, 9, 46),
    ("join-mid-instance", 274, 25, 236),
])
def test_exploration_counts_are_pinned(name, explored, terminal, pruned):
    # The invariants read the trace through its index: a change there that
    # moves a verdict or a state hash moves these counts (the CI mc job's
    # ``--depth-bound 20`` runs).
    result = Explorer(make_scenario(name, 3), depth_bound=20).run()
    assert result.violation is None
    assert (result.explored, result.terminal, result.pruned) == (explored, terminal, pruned)


def test_concurrent_quick_mode_is_clean_and_reports_truncation():
    # CI quick mode: bounded exploration of the checkpoint+rollback race.
    explorer = Explorer(make_scenario("concurrent", 3), depth_bound=10, max_states=20_000)
    result = explorer.run()
    assert result.violation is None
    assert result.explored > 100
    assert result.truncated > 0, "depth bound must be reported, not hidden"
    assert not result.exhaustive


def test_por_prunes_but_preserves_verdict_and_terminal_coverage():
    scenario = make_scenario("isolated-rollback", 3)
    with_por = Explorer(scenario, depth_bound=20, por=True).run()
    without_por = Explorer(scenario, depth_bound=20, por=False).run()
    assert with_por.violation is None and without_por.violation is None
    assert with_por.exhaustive and without_por.exhaustive
    assert with_por.explored < without_por.explored
    assert without_por.pruned == 0


def test_state_bound_truncates_gracefully():
    explorer = Explorer(make_scenario("concurrent", 3), depth_bound=30, max_states=50)
    result = explorer.run()
    assert result.explored <= 50
    assert not result.exhaustive


def test_replay_reproduces_a_schedule_prefix_deterministically():
    explorer = Explorer(make_scenario("concurrent", 3), depth_bound=10)
    harness = explorer.replay([])
    schedule = []
    while not harness.quiescent and len(schedule) < 6:
        key = harness.enabled()[0]
        harness.execute(key)
        schedule.append(key)
    replayed = explorer.replay(schedule)
    assert replayed.step == harness.step
    assert sorted(replayed.in_flight) == sorted(harness.in_flight)


@pytest.mark.parametrize("bad_depth", [0, -3])
def test_nonpositive_depth_bound_rejected(bad_depth):
    with pytest.raises(ValueError):
        Explorer(make_scenario("concurrent", 3), depth_bound=bad_depth)


def test_join_mid_instance_neither_blocks_nor_breaks_minimality():
    # The explorer places the join at every point relative to the 2PC:
    # every terminal state must be quiescent (the instance completed — a
    # join never blocks the round), the quiescent battery holds over the
    # enlarged membership, and the single-instance minimality check
    # confirms the joiner was never recruited into the tree.
    explorer = Explorer(make_scenario("join-mid-instance", 3), depth_bound=25)
    result = explorer.run()
    assert result.violation is None
    assert result.exhaustive
    assert result.terminal > 0


def test_joined_engine_participates_in_later_replayed_steps():
    explorer = Explorer(make_scenario("join-mid-instance", 3), depth_bound=25)
    harness = explorer.replay([])
    # Fire the join first, then drain everything else.
    join_key = next(
        k for k in harness.enabled()
        if k[0] == "a" and harness._pending_actions[k[1]][1] == "join"
    )
    harness.execute(join_key)
    assert 3 in harness.engines
    assert harness.engines[3].peers == (0, 1, 2, 3)
    assert all(e.peers == (0, 1, 2, 3) for e in harness.engines.values())
    while not harness.quiescent:
        harness.execute(harness.enabled()[0])
    # The joiner has no communication history, so it must not have been
    # recruited: no committed checkpoint beyond its initial one.
    assert len(harness.engines[3].committed_history) == 1
