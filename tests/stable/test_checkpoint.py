"""Unit tests for the one checkpoint store: oldchkpt and the pending stack."""

import pytest

from repro.errors import StableStorageError
from repro.stable import CheckpointStore, InMemoryStableStorage


class SpyStorage(InMemoryStableStorage):
    """Counts backend traffic so tests can assert the store's fast paths."""

    def __init__(self):
        super().__init__()
        self.gets = []
        self.puts = []
        self.deletes = []

    def get(self, key, default=None):
        self.gets.append(key)
        return super().get(key, default)

    def put(self, key, value):
        self.puts.append(key)
        super().put(key, value)

    def delete(self, key):
        self.deletes.append(key)
        super().delete(key)

    def clear(self):
        self.gets.clear()
        self.puts.clear()
        self.deletes.clear()


class DeleteFailsOnce(InMemoryStableStorage):
    """A crash between a commit's promote and its delete."""

    armed = False

    def delete(self, key):
        if self.armed:
            self.armed = False
            raise OSError("crash")
        super().delete(key)


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
    committed = store.commit_through(2)
    assert committed.seq == 2 and committed.committed
    assert store.oldchkpt.seq == 2
    assert store.oldchkpt.state == {"s": 5}
    assert store.newchkpt is None


def test_take_discard_cycle():
    store = CheckpointStore()
    store.initialize({"s": 0})
    store.take_new(2, {"s": 5})
    assert store.discard(2).seq == 2
    assert store.newchkpt is None
    assert store.oldchkpt.seq == 1
    assert store.discard(2) is None  # nothing left to abort


def test_double_take_rejected():
    store = CheckpointStore()
    store.initialize({})
    store.take_new(2, {})
    with pytest.raises(StableStorageError):
        store.take_new(2, {})


def test_commit_without_pending_rejected():
    store = CheckpointStore()
    store.initialize({})
    with pytest.raises(StableStorageError):
        store.commit_through(2)


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
    store.commit_through(2)
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
        store.take_new(2, {})
    assert spy.gets == []


def test_slot_reads_decode_once_until_transition():
    spy = SpyStorage()
    store = CheckpointStore(spy)
    store.initialize({"s": 0})
    first = store.oldchkpt
    again = store.oldchkpt
    assert again is first  # the one in-memory record
    store.take_new(2, {"s": 1})
    store.commit_through(2)
    assert store.oldchkpt is not first  # the transition replaced it
    assert store.oldchkpt.seq == 2


def test_two_stores_share_storage_with_namespaces():
    backing = InMemoryStableStorage()
    a = CheckpointStore(backing, namespace="a")
    b = CheckpointStore(backing, namespace="b")
    a.initialize({"who": "a"})
    b.initialize({"who": "b"})
    a.take_new(2, {"who": "a2"})
    assert a.oldchkpt.state == {"who": "a"}
    assert b.oldchkpt.state == {"who": "b"}
    assert CheckpointStore(backing, namespace="b").pending == []


def test_layout_is_old_plus_one_key_per_pending_checkpoint():
    backing = InMemoryStableStorage()
    store = CheckpointStore(backing)
    store.initialize({})
    for seq in (2, 3, 11):
        store.take_new(seq, {"s": seq})
    assert list(backing.keys()) == ["ckpt.new.11", "ckpt.new.2", "ckpt.new.3", "ckpt.old"]
    fresh = CheckpointStore(backing)
    assert [r.seq for r in fresh.pending] == [2, 3, 11]  # by seq, not by key
    assert fresh.newchkpt.state == {"s": 11}


def test_interrupted_commit_does_not_bring_the_checkpoint_back():
    backing = DeleteFailsOnce()
    store = CheckpointStore(backing)
    store.initialize({})
    store.take_new(2, {"s": 2})
    backing.armed = True
    with pytest.raises(OSError):
        store.commit_through(2)  # promoted, then crashed before the delete
    fresh = CheckpointStore(backing)
    assert fresh.oldchkpt.seq == 2
    assert fresh.pending == [] and not fresh.has_new
    assert "ckpt.new.2" not in list(backing.keys())  # and the leftover is gone


def test_initialize_drops_checkpoints_pending_from_an_earlier_run():
    backing = InMemoryStableStorage()
    store = CheckpointStore(backing)
    store.initialize({})
    store.take_new(2, {})
    reborn = CheckpointStore(backing)
    reborn.initialize({"s": 0})
    assert reborn.pending == []
    assert list(backing.keys()) == ["ckpt.old"]


# ----------------------------------------------------------------------
# A stack of pending checkpoints (Section 3.5.3 extension)
# ----------------------------------------------------------------------

def multi():
    store = CheckpointStore()
    store.initialize({"s": 0})
    return store


def test_multi_push_ordering_enforced():
    store = multi()
    store.take_new(2, {})
    store.take_new(4, {})
    with pytest.raises(StableStorageError):
        store.take_new(3, {})


def test_multi_newest_and_find():
    """``newchkpt`` is the newest pending checkpoint; ``pending`` holds them all."""
    store = multi()
    store.take_new(2, {"s": 2})
    store.take_new(3, {"s": 3})
    assert store.newchkpt.seq == 3
    assert {r.seq: r.state for r in store.pending} == {2: {"s": 2}, 3: {"s": 3}}


def test_multi_commit_through_promotes_and_discards_older():
    store = multi()
    store.take_new(2, {"s": 2})
    store.take_new(3, {"s": 3})
    store.take_new(5, {"s": 5})
    committed = store.commit_through(3)
    assert committed.seq == 3
    assert store.oldchkpt.seq == 3
    assert [r.seq for r in store.pending] == [5]


def test_multi_commit_unknown_seq_rejected():
    store = multi()
    store.take_new(2, {})
    with pytest.raises(StableStorageError):
        store.commit_through(9)
    with pytest.raises(StableStorageError):
        store.commit_through(1)
    assert [r.seq for r in store.pending] == [2]


def test_multi_discard_from():
    """``discard`` removes exactly one checkpoint from the stack."""
    store = multi()
    for seq in (2, 3, 5):
        store.take_new(seq, {"s": seq})
    assert store.discard(3).seq == 3
    assert [r.seq for r in store.pending] == [2, 5]
    assert store.discard(9) is None


def test_multi_discard_all():
    store = multi()
    store.take_new(2, {})
    store.take_new(3, {})
    for record in list(store.pending):
        store.discard(record.seq)
    assert store.pending == []
    assert store.oldchkpt.seq == 1


def test_multi_pending_count_without_decoding():
    spy = SpyStorage()
    store = CheckpointStore(spy)
    store.initialize({})
    for seq in (2, 3, 5):
        store.take_new(seq, {"big": list(range(50))})
    spy.gets.clear()
    assert len(store.pending) == 3
    assert spy.gets == []  # served from the in-memory stack


def test_multi_take_touches_only_its_entry():
    spy = SpyStorage()
    store = CheckpointStore(spy)
    store.initialize({})
    store.take_new(2, {"s": 2})
    store.take_new(3, {"s": 3})
    spy.clear()
    store.take_new(5, {"s": 5})
    assert (spy.gets, spy.puts, spy.deletes) == ([], ["ckpt.new.5"], [])


def test_multi_commit_through_never_reserialises_survivors():
    spy = SpyStorage()
    store = CheckpointStore(spy)
    store.initialize({})
    for seq in (2, 3, 5, 8):
        store.take_new(seq, {"s": seq})
    spy.clear()
    store.commit_through(3)
    # Promote the stored record, delete what it supersedes; 5 and 8 untouched.
    assert spy.gets == ["ckpt.new.3"]
    assert spy.puts == ["ckpt.old"]
    assert spy.deletes == ["ckpt.new.2", "ckpt.new.3"]
    assert [r.seq for r in store.pending] == [5, 8]


def test_multi_discard_from_touches_only_dropped_entries():
    spy = SpyStorage()
    store = CheckpointStore(spy)
    store.initialize({})
    for seq in (2, 3, 5):
        store.take_new(seq, {"s": seq})
    spy.clear()
    store.discard(3)
    assert (spy.gets, spy.puts, spy.deletes) == ([], [], ["ckpt.new.3"])


def test_depth_one_commit_is_one_promote_and_one_delete():
    spy = SpyStorage()
    store = CheckpointStore(spy)
    store.initialize({})
    spy.clear()
    store.take_new(2, {"s": 2})
    assert (spy.gets, spy.puts, spy.deletes) == ([], ["ckpt.new.2"], [])
    spy.clear()
    store.commit_through(2)
    assert (spy.gets, spy.puts, spy.deletes) == (["ckpt.new.2"], ["ckpt.old"], ["ckpt.new.2"])
