"""The Section 6 decision log is an append-only log on stable storage.

Each decision costs one ``storage.append`` — independent of how many
decisions came before — and a process constructed over a storage that already
holds a log recovers every decision from it.
"""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CheckpointProcess, ProtocolConfig
from repro.core import messages as M
from repro.failure import FailureDetector
from repro.net import FixedDelay
from repro.net.message import control
from repro.sim import Simulation
from repro.stable import (
    FileStableStorage,
    InMemoryStableStorage,
    WriteBehindFileStableStorage,
)
from repro.testing import run_random_workload
from repro.types import TreeId

CONFIG = ProtocolConfig(failure_resilience=True)
BACKENDS = ["memory", "file", "write-behind"]


def open_storage(backend, root):
    if backend == "memory":
        return InMemoryStableStorage()
    if backend == "file":
        return FileStableStorage(root)
    return WriteBehindFileStableStorage(root, flush_every=4)


def reopen(backend, storage, root):
    """The storage as a restarted OS process would find it."""
    if backend == "memory":
        return storage  # "stable" = outlives the node object
    if backend == "write-behind":
        storage.close()
    return open_storage(backend, root)


def build(storages, seed=0):
    sim = Simulation(seed=seed, delay_model=FixedDelay(0.5))
    procs = {
        pid: sim.add_node(CheckpointProcess(pid, CONFIG, storage=storage))
        for pid, storage in storages.items()
    }
    FailureDetector(sim, detection_latency=1.0)
    sim.run(until=0.0)
    return sim, procs


# ----------------------------------------------------------------------
# One append per decision, and no effect: storage is a port of the engine
# ----------------------------------------------------------------------
def test_each_decision_is_one_append_to_the_storage_log():
    proc = CheckpointProcess(0, CONFIG)
    emitted = []
    proc.engine._sink = emitted.append
    proc._remember_decision(TreeId(1, 4), "commit")
    proc._remember_decision(TreeId(2, 9), "abort")
    proc._remember_decision(TreeId(1, 4), "abort")  # already decided: ignored
    assert emitted == []
    assert proc.storage.read_log("decisions") == [[1, 4, "commit"], [2, 9, "abort"]]
    assert "decisions" not in proc.storage  # no whole-list value key any more


def test_without_failure_resilience_nothing_is_persisted():
    proc = CheckpointProcess(0, ProtocolConfig(failure_resilience=False))
    proc._remember_decision(TreeId(1, 4), "commit")
    assert proc.decisions_seen == {TreeId(1, 4): "commit"}
    assert proc.storage.read_log("decisions") == []


# ----------------------------------------------------------------------
# Restart over a non-empty storage
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_restart_over_existing_storage_recovers_and_answers_inquiries(backend, tmp_path):
    roots = {pid: str(tmp_path / f"p{pid}") for pid in range(3)}
    storages = {pid: open_storage(backend, roots[pid]) for pid in range(3)}
    sim, procs = build(storages, seed=2)
    run_random_workload(sim, procs, duration=30.0, checkpoint_rate=0.1, horizon=60.0)
    before = dict(procs[0].decisions_seen)
    assert len(before) >= 3

    # A brand-new process object over what the old one left behind.
    reopened = {pid: reopen(backend, storages[pid], roots[pid]) for pid in range(3)}
    restarted = CheckpointProcess(0, CONFIG, storage=reopened[0])
    assert restarted.engine._load_decisions() == before
    assert getattr(reopened[0], "torn_tails", 0) == 0

    # Rule 6: once it has gone through its restart procedure, a peer's
    # inquiry about any of those trees is answered from the log.
    sim2 = Simulation(seed=3, delay_model=FixedDelay(0.5))
    sim2.add_node(restarted)
    peer = sim2.add_node(CheckpointProcess(1, CONFIG, storage=reopened[1]))
    FailureDetector(sim2, detection_latency=1.0)
    sim2.run(until=0.0)
    sim2.crash(0)
    sim2.recover(0)
    sim2.run(until=5.0)
    assert restarted.decisions_seen == before
    replies = []
    peer.engine._on_decision_reply = lambda src, reply: replies.append((src, reply))
    wanted = {"commit": "checkpoint", "abort": "checkpoint", "restart": "rollback"}
    for tree, decision in before.items():
        peer.send(control(1, 0, M.DecisionInquiry(tree=tree, decision_kind=wanted[decision])))
    sim2.run(until=10.0)
    assert {(reply.tree, reply.decision) for _src, reply in replies} == set(before.items())

    # The restarted process keeps appending to the same log.
    restarted._remember_decision(TreeId(9, 9), "abort")
    final = reopen(backend, reopened[0], roots[0])
    assert final.read_log("decisions")[-1] == [9, 9, "abort"]
    assert len(final.read_log("decisions")) == len(before) + 1


# ----------------------------------------------------------------------
# Equivalence with the whole-list put it replaced
# ----------------------------------------------------------------------
DECISIONS = st.lists(
    st.tuples(
        st.integers(0, 5), st.integers(0, 40), st.sampled_from(["commit", "abort", "restart"])
    ),
    max_size=25,
    unique_by=lambda record: record[:2],
)


@settings(max_examples=40, deadline=None)
@given(decisions=DECISIONS, backend=st.sampled_from(BACKENDS))
def test_append_k_records_reads_back_like_k_prefix_puts(decisions, backend):
    """What ``_load_decisions`` sees after k appends equals what it saw after
    the parent commit's k whole-list puts (the k-th holding all k records)."""
    with tempfile.TemporaryDirectory() as root:
        proc = CheckpointProcess(0, CONFIG, storage=open_storage(backend, root + "/new"))
        old_storage = open_storage(backend, root + "/old")
        for k, (initiator, seq, decision) in enumerate(decisions, start=1):
            proc._remember_decision(TreeId(initiator, seq), decision)
            old_storage.put("decisions", [list(record) for record in decisions[:k]])
        old_view = {
            TreeId(i, s): d
            for i, s, d in reopen(backend, old_storage, root + "/old").get("decisions", [])
        }
        reopened = reopen(backend, proc.storage, root + "/new")
        restarted = CheckpointProcess(0, CONFIG, storage=reopened)
        assert restarted.engine._load_decisions() == old_view == proc.decisions_seen
        assert list(restarted.engine._load_decisions()) == list(old_view)  # same order


# ----------------------------------------------------------------------
# Scaling guard: counts, not timings
# ----------------------------------------------------------------------
def nodes_in(value):
    """Containers and scalars a freeze of ``value`` has to visit."""
    if isinstance(value, dict):
        return 1 + sum(nodes_in(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return 1 + sum(nodes_in(v) for v in value)
    return 1


def decide(proc, k):
    # Same-width ids, so record #10 and record #300 encode to the same size.
    proc._remember_decision(TreeId(1, 1000 + k), "commit")


def test_elements_frozen_per_decision_do_not_grow_with_history(monkeypatch):
    handed = []

    def counting(original):
        def method(self, key, value):
            handed.append(nodes_in(value))
            return original(self, key, value)
        return method

    for name in ("put", "append"):
        monkeypatch.setattr(
            InMemoryStableStorage, name, counting(getattr(InMemoryStableStorage, name))
        )
    proc = CheckpointProcess(0, CONFIG)
    costs = []
    for k in range(1, 301):
        handed.clear()
        decide(proc, k)
        costs.append(sum(handed))
    assert costs[299] == costs[9] == nodes_in([1, 1010, "commit"])


@pytest.mark.parametrize("backend", ["file", "write-behind"])
def test_json_bytes_written_per_decision_do_not_grow_with_history(backend, tmp_path, monkeypatch):
    encoded = []
    original = FileStableStorage._encode

    def counting_encode(self, key, value):
        payload = original(self, key, value)
        encoded.append(len(payload))
        return payload

    monkeypatch.setattr(FileStableStorage, "_encode", counting_encode)
    root = str(tmp_path / "p0")
    proc = CheckpointProcess(0, CONFIG, storage=open_storage(backend, root))
    costs = []
    for k in range(1, 301):
        encoded.clear()
        decide(proc, k)
        costs.append(sum(encoded))
    assert costs[299] == costs[9] == len('[1, 1010, "commit"]')
    reopened = reopen(backend, proc.storage, root)
    assert len(reopened.read_log("decisions")) == 300
