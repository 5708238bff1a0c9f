"""Unit tests for the oldchkpt/newchkpt slots and the multi-checkpoint stack."""

import pytest

from repro.errors import StableStorageError
from repro.stable import CheckpointStore, InMemoryStableStorage, MultiCheckpointStore


class SpyStorage(InMemoryStableStorage):
    """Counts backend traffic so tests can assert the stores' fast paths."""

    def __init__(self):
        super().__init__()
        self.gets = []
        self.puts = []

    def get(self, key, default=None):
        self.gets.append(key)
        return super().get(key, default)

    def put(self, key, value):
        self.puts.append(key)
        super().put(key, value)


def test_initialize_sets_committed_birth_checkpoint():
    store = CheckpointStore()
    record = store.initialize({"s": 0})
    assert record.seq == 1 and record.committed
    assert store.oldchkpt.seq == 1
    assert store.newchkpt is None


def test_take_commit_cycle():
    store = CheckpointStore()
    store.initialize({"s": 0})
    store.take_new(2, {"s": 5}, made_at=3.0, recv=[], sent=[])
    assert store.newchkpt.seq == 2
    assert not store.newchkpt.committed
    committed = store.commit_new()
    assert committed.seq == 2 and committed.committed
    assert store.oldchkpt.seq == 2
    assert store.oldchkpt.state == {"s": 5}
    assert store.newchkpt is None


def test_take_discard_cycle():
    store = CheckpointStore()
    store.initialize({"s": 0})
    store.take_new(2, {"s": 5})
    store.discard_new()
    assert store.newchkpt is None
    assert store.oldchkpt.seq == 1


def test_double_take_rejected():
    store = CheckpointStore()
    store.initialize({})
    store.take_new(2, {})
    with pytest.raises(StableStorageError):
        store.take_new(3, {})


def test_commit_without_pending_rejected():
    store = CheckpointStore()
    store.initialize({})
    with pytest.raises(StableStorageError):
        store.commit_new()


def test_meta_roundtrips():
    store = CheckpointStore()
    store.initialize({})
    store.take_new(2, {}, recv=[[0, 1]], sent=[[1, 0]])
    assert store.newchkpt.meta == {"recv": [[0, 1]], "sent": [[1, 0]]}


def test_has_new_tracks_pending_slot():
    store = CheckpointStore()
    store.initialize({})
    assert store.has_new is False
    store.take_new(2, {})
    assert store.has_new is True
    store.commit_new()
    assert store.has_new is False


def test_has_new_never_reads_the_slot():
    spy = SpyStorage()
    store = CheckpointStore(spy)
    store.initialize({})
    store.take_new(2, {"big": list(range(100))})
    spy.gets.clear()
    assert store.has_new is True
    assert spy.gets == []  # pure existence check, no deserialisation


def test_take_new_guard_does_not_decode():
    spy = SpyStorage()
    store = CheckpointStore(spy)
    store.initialize({})
    store.take_new(2, {})
    spy.gets.clear()
    with pytest.raises(StableStorageError):
        store.take_new(3, {})
    assert spy.gets == []


def test_slot_reads_decode_once_until_transition():
    spy = SpyStorage()
    store = CheckpointStore(spy)
    store.initialize({"s": 0})
    first = store.oldchkpt
    again = store.oldchkpt
    assert again is first  # the one in-memory record
    store.take_new(2, {"s": 1})
    store.commit_new()
    assert store.oldchkpt is not first  # the transition replaced it
    assert store.oldchkpt.seq == 2


def test_two_stores_share_storage_with_namespaces():
    backing = InMemoryStableStorage()
    a = CheckpointStore(backing, namespace="a")
    b = CheckpointStore(backing, namespace="b")
    a.initialize({"who": "a"})
    b.initialize({"who": "b"})
    assert a.oldchkpt.state == {"who": "a"}
    assert b.oldchkpt.state == {"who": "b"}


# ----------------------------------------------------------------------
# MultiCheckpointStore (Section 3.5.3 extension)
# ----------------------------------------------------------------------

def multi():
    store = MultiCheckpointStore()
    store.initialize({"s": 0})
    return store


def test_multi_push_ordering_enforced():
    store = multi()
    store.push(2, {})
    store.push(4, {})
    with pytest.raises(StableStorageError):
        store.push(3, {})


def test_multi_newest_and_find():
    store = multi()
    store.push(2, {"s": 2})
    store.push(3, {"s": 3})
    assert store.newest.seq == 3
    assert store.find(2).state == {"s": 2}
    assert store.find(9) is None


def test_multi_commit_through_promotes_and_discards_older():
    store = multi()
    store.push(2, {"s": 2})
    store.push(3, {"s": 3})
    store.push(5, {"s": 5})
    committed = store.commit_through(3)
    assert committed.seq == 3
    assert store.oldchkpt.seq == 3
    assert [r.seq for r in store.pending] == [5]


def test_multi_commit_unknown_seq_rejected():
    store = multi()
    store.push(2, {})
    with pytest.raises(StableStorageError):
        store.commit_through(9)


def test_multi_discard_from():
    store = multi()
    for seq in (2, 3, 5):
        store.push(seq, {"s": seq})
    dropped = store.discard_from(3)
    assert [r.seq for r in dropped] == [3, 5]
    assert [r.seq for r in store.pending] == [2]


def test_multi_discard_all():
    store = multi()
    store.push(2, {})
    store.push(3, {})
    dropped = store.discard_all()
    assert len(dropped) == 2
    assert store.pending == []
    assert store.oldchkpt.seq == 1


def test_multi_pending_count_without_decoding():
    spy = SpyStorage()
    store = MultiCheckpointStore(spy)
    store.initialize({})
    for seq in (2, 3, 5):
        store.push(seq, {"big": list(range(50))})
    spy.gets.clear()
    assert store.pending_count == 3
    assert spy.gets == []  # served from the in-memory stack


def test_multi_push_touches_only_new_entry_and_index():
    spy = SpyStorage()
    store = MultiCheckpointStore(spy)
    store.initialize({})
    store.push(2, {"s": 2})
    store.push(3, {"s": 3})
    spy.puts.clear()
    store.push(5, {"s": 5})
    assert spy.puts == ["ckpt.pending.5", "ckpt.pending"]


def test_multi_commit_through_never_reserialises_survivors():
    spy = SpyStorage()
    store = MultiCheckpointStore(spy)
    store.initialize({})
    for seq in (2, 3, 5, 8):
        store.push(seq, {"s": seq})
    spy.puts.clear()
    store.commit_through(3)
    # Promoted slot + trimmed index; entries 5 and 8 untouched.
    assert spy.puts == ["ckpt.old", "ckpt.pending"]
    assert [r.seq for r in store.pending] == [5, 8]


def test_multi_discard_from_touches_only_dropped_entries():
    spy = SpyStorage()
    store = MultiCheckpointStore(spy)
    store.initialize({})
    for seq in (2, 3, 5):
        store.push(seq, {"s": seq})
    spy.puts.clear()
    store.discard_from(3)
    assert spy.puts == ["ckpt.pending"]  # survivors never re-serialised
