"""Unit tests for replicated message spoolers."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import ProtocolConfig, ProtocolEngine
from repro.failure import FailureInjector
from repro.net.message import normal
from repro.net.spooler import SpoolerGroup
from repro.testing import build_sim, run_random_workload
from repro.tracekinds import K_CTRL_SEND
from repro.types import MessageId, TreeId


def env(k=0):
    return normal(0, 9, MessageId(0, k), label=1, body=f"m{k}")


def alive_all(pid):
    return True


def test_spool_records_on_all_live_replicas():
    group = SpoolerGroup(owner=9, hosts=[1, 2])
    assert group.spool(env(), alive_all)
    assert all(len(r.envelopes) == 1 for r in group.replicas)


def test_spool_skips_dead_replicas():
    group = SpoolerGroup(owner=9, hosts=[1, 2])
    alive = lambda pid: pid == 2
    assert group.spool(env(), alive)
    assert len(group.replicas[0].envelopes) == 0
    assert len(group.replicas[1].envelopes) == 1


def test_spool_fails_when_all_replicas_dead():
    group = SpoolerGroup(owner=9, hosts=[1, 2])
    assert not group.spool(env(), lambda pid: False)


def test_drain_deduplicates_across_replicas():
    group = SpoolerGroup(owner=9, hosts=[1, 2])
    e = env()
    group.spool(e, alive_all)
    drained = group.drain(alive_all)
    assert drained == [e]
    # Drain clears.
    assert group.drain(alive_all) == []


def test_drain_only_reads_live_replicas():
    group = SpoolerGroup(owner=9, hosts=[1, 2])
    e = env()
    group.spool(e, lambda pid: pid == 1)  # only replica on host 1
    drained = group.drain(lambda pid: pid == 2)  # host 1 now dead
    assert drained == []


def test_decisions_recorded_and_queried():
    group = SpoolerGroup(owner=9, hosts=[1, 2])
    group.observe_decision(("commit", "t1"), alive_all)
    seen = group.decisions_seen(alive_all)
    assert ("commit", "t1") in seen


def test_decisions_none_when_all_replicas_dead():
    group = SpoolerGroup(owner=9, hosts=[1])
    group.observe_decision(("commit", "t1"), alive_all)
    assert group.decisions_seen(lambda pid: False) is None


# ----------------------------------------------------------------------
# The decision log is keyed by tree: bounded, and rule 3 reads the same verdict
# ----------------------------------------------------------------------
def test_replica_holds_one_entry_per_tree_after_a_kill_restart_run():
    sim, procs = build_sim(
        n=6, seed=5, config=ProtocolConfig(failure_resilience=True),
        detector_latency=1.0, spoolers=True,
    )
    observed = []
    observe = sim.network.observe_decision
    sim.network.observe_decision = lambda decision: (observed.append(decision), observe(decision))
    injector = FailureInjector(sim)
    injector.crash_at(12.0, pid=2)
    injector.recover_at(20.0, pid=2)
    run_random_workload(sim, procs, duration=40.0, checkpoint_rate=0.2, error_rate=0.03)

    trees = {tree for _kind, tree in observed}
    decision_sends = [
        e for e in sim.trace.index.by_kind(K_CTRL_SEND)
        if e.fields["msg_type"] in ("commit", "abort", "restart")
    ]
    assert len(trees) > 10
    # Observed once per decision sent to anyone, not once per recipient ...
    assert len(observed) < len(decision_sends)
    # ... and kept once per tree, however often it was re-sent.
    for pid in procs:
        for replica in sim.network.spooler_for(pid).replicas:
            assert 0 < len(replica.decisions) <= len(trees)
            assert set(replica.decisions) <= trees


HOSTS = [1, 2, 3]
TREES = [TreeId(0, k) for k in range(4)]


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.sampled_from(["commit", "abort"]), st.sampled_from(TREES)),
            st.tuples(st.just("flip"), st.sampled_from(HOSTS)),  # a replica host dies / returns
        ),
        max_size=40,
    ),
    instances=st.sets(st.sampled_from(TREES)),
)
def test_rule_3_verdict_equals_the_list_form(ops, instances):
    group = SpoolerGroup(owner=9, hosts=HOSTS)
    appended = {host: [] for host in HOSTS}  # the list form: every observation kept
    up = set(HOSTS)
    for kind, arg in ops:
        if kind == "flip":
            up ^= {arg}
            continue
        group.observe_decision((kind, arg), up.__contains__)
        for host in up:
            appended[host].append((kind, arg))
    as_lists = [d for host in HOSTS if host in up for d in appended[host]] if up else None

    engine = ProtocolEngine(9)
    engine._spool_decisions = as_lists
    expected = engine._decision_from_spoolers(instances)
    seen = group.decisions_seen(up.__contains__)
    engine._spool_decisions = None if seen is None else tuple(seen)
    assert engine._decision_from_spoolers(instances) == expected
    assert all(len(r.decisions) <= len(TREES) for r in group.replicas)
