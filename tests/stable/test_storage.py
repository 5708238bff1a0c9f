"""Unit tests for stable storage backends."""

import gc
import os
import sys
import weakref

import pytest

from repro.errors import StableStorageError
from repro.stable import (
    FileStableStorage,
    InMemoryStableStorage,
    WriteBehindFileStableStorage,
    escape_key,
    thaw,
    unescape_key,
)

# The deep-copy reference backend lives beside the equivalence test that
# compares against it; it is held to the same contract as the real ones.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "integration"))
from test_equivalence import DeepCopyStableStorage  # noqa: E402


@pytest.fixture(params=["memory", "deepcopy", "file", "write-behind"])
def storage(request, tmp_path):
    if request.param == "memory":
        return InMemoryStableStorage()
    if request.param == "deepcopy":
        return DeepCopyStableStorage()
    if request.param == "file":
        return FileStableStorage(str(tmp_path / "stable"))
    return WriteBehindFileStableStorage(str(tmp_path / "stable"), flush_every=4)


def test_put_get_roundtrip(storage):
    storage.put("k", {"a": 1, "b": [1, 2, 3]})
    assert storage.get("k") == {"a": 1, "b": [1, 2, 3]}


def test_get_missing_returns_default(storage):
    assert storage.get("missing") is None
    assert storage.get("missing", 42) == 42


def test_overwrite(storage):
    storage.put("k", 1)
    storage.put("k", 2)
    assert storage.get("k") == 2


def test_delete(storage):
    storage.put("k", 1)
    storage.delete("k")
    assert storage.get("k") is None
    storage.delete("k")  # idempotent


def test_contains(storage):
    assert "k" not in storage
    storage.put("k", 0)  # falsy value must still count as present
    assert "k" in storage


def test_keys_sorted(storage):
    for name in ["b", "a", "c"]:
        storage.put(name, 1)
    assert list(storage.keys()) == ["a", "b", "c"]


def test_caller_mutation_never_leaks_in(storage):
    value = {"x": [1]}
    storage.put("k", value)
    value["x"].append(2)  # caller mutation after put must not leak in
    assert storage.get("k") == {"x": [1]}


def test_memory_storage_returns_frozen_views():
    """``get`` is zero-copy: the view is immutable, ``thaw`` is the escape
    hatch (the old backend deep-copied on every read instead)."""
    storage = InMemoryStableStorage()
    storage.put("k", {"x": [1]})
    out = storage.get("k")
    with pytest.raises(TypeError, match="frozen"):
        out["x"].append(3)
    with pytest.raises(TypeError, match="frozen"):
        out["y"] = 1
    editable = thaw(out)
    editable["x"].append(3)  # thawed copies are independent of the store
    assert storage.get("k") == {"x": [1]}
    assert storage.get("k") is out  # repeated reads share the frozen view


def test_memory_storage_rejects_unfreezable():
    with pytest.raises(StableStorageError):
        InMemoryStableStorage().put("k", object())


def test_memory_storage_retains_only_what_its_keys_reach():
    """Overwritten and deleted values die with their last reader: the store
    holds exactly one frozen root per live key, nothing pooled behind it."""
    storage = InMemoryStableStorage()
    superseded = []
    for round_ in range(200):
        storage.put("state", {"round": round_, "blob": [f"{round_}:{i}" for i in range(1000)]})
        superseded.append(weakref.ref(storage.get("state")))
    live = superseded.pop()  # the last put is still reachable through its key
    storage.put("doomed", {"blob": ["x" * 10] * 1000})
    superseded.append(weakref.ref(storage.get("doomed")))
    storage.delete("doomed")
    gc.collect()
    assert sum(ref() is not None for ref in superseded) == 0
    assert live() is storage.get("state")
    assert live()["round"] == 199


def test_deepcopy_storage_is_copy_on_access():
    storage = DeepCopyStableStorage()
    storage.put("k", {"x": [1]})
    out = storage.get("k")
    out["x"].append(3)  # baseline semantics: reader mutation cannot leak back
    assert storage.get("k") == {"x": [1]}


def test_file_storage_persists_across_instances(tmp_path):
    root = str(tmp_path / "stable")
    FileStableStorage(root).put("k", [1, 2])
    assert FileStableStorage(root).get("k") == [1, 2]


def test_file_storage_rejects_unserialisable(tmp_path):
    storage = FileStableStorage(str(tmp_path / "stable"))
    with pytest.raises(StableStorageError):
        storage.put("k", object())


def test_file_storage_detects_corruption(tmp_path):
    root = str(tmp_path / "stable")
    storage = FileStableStorage(root)
    storage.put("k", 1)
    path = os.path.join(root, "k.json")
    with open(path, "w") as handle:
        handle.write("{not json")
    with pytest.raises(StableStorageError):
        storage.get("k")


def test_file_storage_no_tmp_leftovers(tmp_path):
    root = str(tmp_path / "stable")
    storage = FileStableStorage(root)
    for k in range(20):
        storage.put(f"key{k}", k)
    leftovers = [n for n in os.listdir(root) if n.startswith(".tmp-")]
    assert leftovers == []


# ----------------------------------------------------------------------
# Key escaping (reversible; distinct keys -> distinct files)
# ----------------------------------------------------------------------

AWKWARD_KEYS = ["a/b", "a_b", "a b", "a%b", "üñï", ".hidden", ".tmp-x", "a.b"]


@pytest.mark.parametrize("key", AWKWARD_KEYS)
def test_escape_key_roundtrips(key):
    assert unescape_key(escape_key(key)) == key


def test_escape_key_is_injective_for_former_collisions():
    assert escape_key("a/b") != escape_key("a_b")


def test_file_storage_keys_roundtrip(tmp_path):
    storage = FileStableStorage(str(tmp_path / "stable"))
    for i, key in enumerate(AWKWARD_KEYS):
        storage.put(key, i)
    assert list(storage.keys()) == sorted(AWKWARD_KEYS)
    for i, key in enumerate(AWKWARD_KEYS):
        assert storage.get(key) == i


def test_file_storage_slash_and_underscore_no_longer_collide(tmp_path):
    storage = FileStableStorage(str(tmp_path / "stable"))
    storage.put("a/b", "slash")
    storage.put("a_b", "underscore")
    assert storage.get("a/b") == "slash"
    assert storage.get("a_b") == "underscore"


# ----------------------------------------------------------------------
# Write-behind batching (group commit)
# ----------------------------------------------------------------------

def test_write_behind_buffers_until_flush(tmp_path):
    root = str(tmp_path / "stable")
    storage = WriteBehindFileStableStorage(root, flush_every=100)
    storage.put("k", {"v": 1})
    assert storage.get("k") == {"v": 1}  # read-your-writes from the buffer
    assert FileStableStorage(root).get("k") is None  # nothing on disk yet
    storage.flush()
    assert FileStableStorage(root).get("k") == {"v": 1}
    assert storage.flushes == 1


def test_write_behind_auto_flushes_at_threshold(tmp_path):
    root = str(tmp_path / "stable")
    storage = WriteBehindFileStableStorage(root, flush_every=3)
    for i in range(3):
        storage.put(f"k{i}", i)
    assert storage.flushes == 1
    assert FileStableStorage(root).get("k2") == 2


def test_write_behind_counts_ops_not_distinct_keys(tmp_path):
    # A checkpoint workload rewrites the same few keys; the threshold must
    # still bound un-flushed history.
    root = str(tmp_path / "stable")
    storage = WriteBehindFileStableStorage(root, flush_every=4)
    for i in range(4):
        storage.put("same", i)
    assert storage.flushes == 1
    assert FileStableStorage(root).get("same") == 3


def test_write_behind_last_write_wins_within_batch(tmp_path):
    root = str(tmp_path / "stable")
    storage = WriteBehindFileStableStorage(root, flush_every=100)
    storage.put("k", 1)
    storage.delete("k")
    storage.put("j", 1)
    storage.put("j", 2)
    storage.flush()
    durable = FileStableStorage(root)
    assert durable.get("k") is None
    assert durable.get("j") == 2


def test_write_behind_delete_of_flushed_key(tmp_path):
    root = str(tmp_path / "stable")
    storage = WriteBehindFileStableStorage(root, flush_every=100)
    storage.put("k", 1)
    storage.flush()
    storage.delete("k")
    assert "k" not in storage  # buffer-first read sees the delete
    storage.flush()
    assert FileStableStorage(root).get("k") is None


def test_write_behind_close_flushes_and_leaves_no_tmp(tmp_path):
    root = str(tmp_path / "stable")
    storage = WriteBehindFileStableStorage(root, flush_every=100)
    for i in range(10):
        storage.put(f"k{i}", i)
    storage.close()
    assert [n for n in os.listdir(root) if n.startswith(".tmp-")] == []
    assert FileStableStorage(root).get("k9") == 9


# ----------------------------------------------------------------------
# Log keys (append / read_log)
# ----------------------------------------------------------------------

RECORDS = [[0, 1, "commit"], [2, 7, "abort"], [0, 2, "restart"], [1, 1, "commit"]]


def test_log_append_read_roundtrip_in_order(storage):
    assert storage.read_log("log") == []
    for count, record in enumerate(RECORDS, start=1):
        storage.append("log", record)
        assert storage.read_log("log") == RECORDS[:count]


def test_log_keys_are_listed_and_deleted(storage):
    storage.put("value", 1)
    storage.append("log", RECORDS[0])
    assert list(storage.keys()) == ["log", "value"]
    assert storage.get("log") is None and "log" not in storage  # not a value key
    storage.delete("log")
    assert storage.read_log("log") == []
    assert list(storage.keys()) == ["value"]
    storage.append("log", RECORDS[1])  # a deleted log starts over
    assert storage.read_log("log") == [RECORDS[1]]


def test_log_caller_mutation_never_leaks_in_or_out(storage):
    record = [0, 1, "commit"]
    storage.append("log", record)
    record[2] = "abort"
    assert storage.read_log("log") == [[0, 1, "commit"]]
    storage.read_log("log").append("extra")  # the returned list is the caller's
    assert storage.read_log("log") == [[0, 1, "commit"]]


def test_log_append_rejects_non_json_shaped_records(storage):
    if isinstance(storage, DeepCopyStableStorage):
        pytest.skip("the deep-copy baseline stores any copyable object")
    with pytest.raises(StableStorageError):
        storage.append("log", object())
    assert storage.read_log("log") == []


def test_file_log_persists_across_instances_one_line_per_record(tmp_path):
    root = str(tmp_path / "stable")
    writer = FileStableStorage(root)
    for record in RECORDS:
        writer.append("log", record)
    assert FileStableStorage(root).read_log("log") == RECORDS
    with open(os.path.join(root, "log.log")) as handle:
        assert handle.read().count("\n") == len(RECORDS)


def test_file_log_torn_tail_is_dropped_reported_and_cut_by_the_next_append(tmp_path):
    root = str(tmp_path / "stable")
    writer = FileStableStorage(root)
    writer.append("log", RECORDS[0])
    writer.append("log", RECORDS[1])
    path = os.path.join(root, "log.log")
    with open(path, "a") as handle:
        handle.write('[0, 2, "rest')  # crash mid-append: no newline reached disk
    reopened = FileStableStorage(root)
    assert reopened.read_log("log") == RECORDS[:2]
    assert reopened.torn_tails == 1
    # Even a fragment that parses is dropped: without its newline the append
    # never completed.
    with open(path, "w") as handle:
        handle.write('[0, 1, "commit"]\n[2, 7, "abort"]')
    assert FileStableStorage(root).read_log("log") == RECORDS[:1]
    # A fresh writer (no read first) must not glue its record onto the tear.
    fresh = FileStableStorage(root)
    fresh.append("log", RECORDS[2])
    assert fresh.read_log("log") == [RECORDS[0], RECORDS[2]]
    assert fresh.torn_tails == 0


def test_file_log_interior_corruption_is_an_error(tmp_path):
    root = str(tmp_path / "stable")
    FileStableStorage(root).append("log", RECORDS[0])
    with open(os.path.join(root, "log.log"), "w") as handle:
        handle.write('[0, 1, "commit"]\n{not json\n[2, 7, "abort"]\n')
    with pytest.raises(StableStorageError, match="corrupt stable log"):
        FileStableStorage(root).read_log("log")
    with open(os.path.join(root, "log.log"), "w") as handle:
        handle.write('[0, 1, "commit"]\n\n[2, 7, "abort"]\n')  # blank interior line
    with pytest.raises(StableStorageError, match="corrupt stable log"):
        FileStableStorage(root).read_log("log")


def test_write_behind_log_reads_its_own_buffered_appends(tmp_path):
    root = str(tmp_path / "stable")
    storage = WriteBehindFileStableStorage(root, flush_every=100)
    storage.append("log", RECORDS[0])
    storage.flush()
    storage.append("log", RECORDS[1])
    storage.append("log", RECORDS[2])
    assert storage.read_log("log") == RECORDS[:3]  # disk first, then the buffer
    assert FileStableStorage(root).read_log("log") == RECORDS[:1]
    assert "log" in list(storage.keys())
    storage.close()
    assert FileStableStorage(root).read_log("log") == RECORDS[:3]


def test_write_behind_appends_count_toward_the_flush_threshold(tmp_path):
    root = str(tmp_path / "stable")
    storage = WriteBehindFileStableStorage(root, flush_every=3)
    storage.put("k", 1)
    storage.append("log", RECORDS[0])
    assert storage.flushes == 0
    storage.append("log", RECORDS[1])
    assert storage.flushes == 1
    assert FileStableStorage(root).read_log("log") == RECORDS[:2]


def test_write_behind_log_delete_then_append_within_one_batch(tmp_path):
    root = str(tmp_path / "stable")
    storage = WriteBehindFileStableStorage(root, flush_every=100)
    storage.append("log", RECORDS[0])
    storage.flush()
    storage.delete("log")
    assert storage.read_log("log") == []  # the flushed record is already gone
    storage.append("log", RECORDS[1])
    assert storage.read_log("log") == [RECORDS[1]]
    storage.flush()
    assert FileStableStorage(root).read_log("log") == [RECORDS[1]]
