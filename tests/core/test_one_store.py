"""One checkpoint store, owned by the engine, written through to storage.

The engine holds the only ``CheckpointStore`` (the Section 3.5.3 extension
keeps its stack of pending checkpoints there too) over the only
``StableStorage``; the adapter exposes them read-only.  What is on storage
is what the store holds, on every backend, and rule 3 reads its commit set
and decision log back from storage.
"""

import json

import pytest

from repro.core import CheckpointProcess, ExtendedCheckpointProcess, ProtocolConfig
from repro.core import events as EV
from repro.core.engine import ProtocolEngine
from repro.errors import ProtocolError
from repro.failure import FailureInjector
from repro.net.message import control
from repro.stable import CheckpointStore, InMemoryStableStorage
from repro.testing import build_sim, run_random_workload
from repro.tracekinds import K_CTRL_RECEIVE
from repro.types import TreeId
from test_decision_log import BACKENDS, open_storage, reopen  # sibling module: the restart model
from test_input_doors import RecordingHost  # sibling module: the host port as data

RESILIENT = ProtocolConfig(failure_resilience=True)
BIRTH_MANIFEST = {"recv": [], "sent": []}


def as_stored(record):
    """A checkpoint record in the shape JSON storage gives it back."""
    return json.loads(json.dumps(
        [record.seq, record.committed, record.made_at, record.meta, record.state]
    ))


def storages_for(backend, tmp_path, n):
    roots = {pid: str(tmp_path / f"p{pid}") for pid in range(n)}
    return roots, {pid: open_storage(backend, roots[pid]) for pid in range(n)}


# ----------------------------------------------------------------------
# (a) one owner
# ----------------------------------------------------------------------
def test_adapter_exposes_the_engines_store_and_storage():
    storage = InMemoryStableStorage()
    proc = CheckpointProcess(0, storage=storage)
    assert proc.store is proc.engine.store
    assert proc.storage is proc.engine.storage is storage
    assert "store" not in vars(proc) and "storage" not in vars(proc)


def test_extended_adapter_exposes_the_engines_stack():
    proc = ExtendedCheckpointProcess(0)
    assert proc.store is proc.engine.store
    assert vars(proc).keys().isdisjoint({"store", "storage"})


def test_adapter_view_is_read_only():
    sim, procs = build_sim(n=1)
    procs[0].send_suspended = True  # lands on the adapter, not the engine
    assert procs[0].engine.send_suspended is False


# ----------------------------------------------------------------------
# The birth checkpoint is stored with its manifest, like every later one
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_birth_checkpoint_is_persisted_with_its_manifest(backend, tmp_path):
    roots, storages = storages_for(backend, tmp_path, 1)
    sim, procs = build_sim(n=1, storage_factory=storages.get)
    assert procs[0].store.oldchkpt.meta == BIRTH_MANIFEST
    assert storages[0].get("ckpt.old")["meta"] == BIRTH_MANIFEST
    assert reopen(backend, storages[0], roots[0]).get("ckpt.old")["meta"] == BIRTH_MANIFEST


def test_extension_birth_checkpoint_is_persisted_with_its_manifest():
    sim, procs = build_sim(n=1, cls=ExtendedCheckpointProcess)
    assert procs[0].storage.get("ckpt.old")["meta"] == BIRTH_MANIFEST


def test_extension_start_stores_one_checkpoint_key():
    sim, procs = build_sim(n=1, cls=ExtendedCheckpointProcess)
    assert [k for k in procs[0].storage.keys() if k.startswith("ckpt")] == ["ckpt.old"]


# ----------------------------------------------------------------------
# (b) write-through: a fresh store over the storage equals the live one
# ----------------------------------------------------------------------
#: The base engine under crashes, and the extension (which has no Section 6
#: rules for its stack) fault-free; ids keep the base cases' backend names.
FRESH_CASES = [pytest.param(CheckpointProcess, b, id=b) for b in BACKENDS] + [
    pytest.param(ExtendedCheckpointProcess, b, id=f"extended-{b}") for b in BACKENDS
]


@pytest.mark.parametrize("cls, backend", FRESH_CASES)
def test_fresh_store_over_storage_equals_live_store(cls, backend, tmp_path):
    roots, storages = storages_for(backend, tmp_path, 4)
    if cls is CheckpointProcess:
        sim, procs = build_sim(
            n=4, seed=3, config=RESILIENT, detector_latency=1.0, spoolers=True,
            storage_factory=storages.get,
        )
        injector = FailureInjector(sim)
        injector.crash_at(12.0, pid=2)
        injector.recover_at(20.0, pid=2)
    else:
        sim, procs = build_sim(n=4, seed=3, cls=cls, storage_factory=storages.get)
    # Cut mid-run, while some processes still hold uncommitted checkpoints.
    run_random_workload(
        sim, procs, duration=40.0, checkpoint_rate=0.1, error_rate=0.03, horizon=33.3
    )
    assert sum(len(p.committed_history) for p in procs.values()) > 8
    assert sim.trace.index.count("rollback") > 0
    pending = 0
    for pid, proc in procs.items():
        fresh = CheckpointStore(reopen(backend, storages[pid], roots[pid]))
        live = proc.store
        assert as_stored(fresh.oldchkpt) == as_stored(live.oldchkpt)
        assert fresh.has_new == live.has_new
        assert [as_stored(r) for r in fresh.pending] == [as_stored(r) for r in live.pending]
        pending += len(live.pending)
    assert pending > 0


# ----------------------------------------------------------------------
# (c) rule 3 reads stable storage
# ----------------------------------------------------------------------
class ReadSpyStorage(InMemoryStableStorage):
    def __init__(self):
        super().__init__()
        self.reads = []

    def get(self, key, default=None):
        self.reads.append(("get", key))
        return super().get(key, default)

    def read_log(self, key):
        self.reads.append(("read_log", key))
        return super().read_log(key)


def test_recover_reads_commit_set_and_decision_log_from_storage():
    spy = ReadSpyStorage()
    engine = ProtocolEngine(0, config=RESILIENT, storage=spy)
    engine.handle(EV.Start(peers=(0, 1), at=0.0))
    engine._remember_decision(TreeId(1, 7), "commit")
    engine.handle(EV.Fail(at=1.0))
    assert engine.decisions_seen == {}
    spy.reads.clear()
    engine.handle(EV.Recover(at=2.0))
    assert ("get", "commit_set") in spy.reads
    assert ("read_log", "decisions") in spy.reads
    assert engine.decisions_seen[TreeId(1, 7)] == "commit"


def test_commit_set_put_before_fail_is_in_force_after_recover():
    engine = ProtocolEngine(0, config=RESILIENT)
    engine.handle(EV.Start(peers=(0, 1), at=0.0))
    engine.store.take_new(2, engine.app.snapshot(), made_at=1.0)
    engine.chkpt_commit_set = {TreeId(1, 3)}
    engine._persist_commit_set()
    engine.handle(EV.Fail(at=2.0))
    assert engine.chkpt_commit_set == set()
    # Storage, not engine memory, is what the restart sees.
    engine.storage.put("commit_set", [[1, 3], [2, 5]])
    engine.handle(EV.Recover(at=3.0))  # no spooler verdict: inquire and wait
    assert engine.chkpt_commit_set == {TreeId(1, 3), TreeId(2, 5)}
    assert engine.store.has_new


# ----------------------------------------------------------------------
# Exact-class dispatch: no subclass fallback
# ----------------------------------------------------------------------
def test_unknown_event_class_raises():
    engine = ProtocolEngine(0)

    class Tick(EV.LocalStep):
        pass

    with pytest.raises(ProtocolError, match="unknown engine event"):
        engine.handle(Tick(at=0.0))


def test_unknown_control_body_is_traced_then_ignored():
    class Ping:
        kind = "ping"

    engine = ProtocolEngine(0)
    engine.handle(EV.Start(peers=(0, 1), at=0.0))
    engine.host = host = RecordingHost()
    assert engine.handle(EV.Deliver(envelope=control(1, 0, Ping()), at=1.0)) == []
    assert [(call[1], call[2]["msg_type"]) for call in host.calls] == [(K_CTRL_RECEIVE, "ping")]
