"""Stable storage (paper Section 6, assumption b).

"Process failures do not affect the stable storage.  Thus a recovering
process can always restore its last checkpointed state."

:class:`StableStorage` is a tiny key/value interface with exactly the
semantics the algorithms need: writes are atomic and survive crashes, reads
after a crash see the last completed write.  Backends:

* :class:`InMemoryStableStorage` — the default for simulations; "stable"
  simply means it lives outside the node object that gets reset on crash.
  ``put`` freezes the value (:func:`~repro.stable.snapshot.freeze`: no deep
  copy, O(changed) when unchanged frozen sub-trees are reused) and ``get``
  returns the frozen view without copying — callers
  :func:`~repro.stable.snapshot.thaw` explicitly if they need to mutate.
  It holds exactly what its keys reach: an overwritten or deleted value is
  garbage as soon as its readers let go.
* :class:`FileStableStorage` — JSON-per-key on disk, with atomic rename
  writes; used by the file-backed examples and to demonstrate that the
  checkpoint records round-trip through real persistence.
* :class:`WriteBehindFileStableStorage` — batched variant: puts buffer in
  memory and a group-commit ``flush`` writes them all, each through the same
  tmp-file + atomic-rename path, so flushed records are never torn.

Values must be JSON-shaped (dicts, lists, tuples, scalars) — ``freeze``
enforces for the in-memory backend what JSON encoding enforces for the file
backends.

Log keys
--------
Besides ``put``/``get`` value keys, every backend keeps append-only *log
keys*: ``append(key, record)`` adds one record at a cost independent of how
many the log already holds, and ``read_log(key)`` returns the records in
append order.  A key is used as one or the other, never both; ``delete``
and ``keys()`` cover both kinds (``get`` and ``in`` see value keys only).
The file backends keep one JSON line per record in ``<key>.log``.  An
append is complete once its newline is on disk: a final line without one is
a *torn tail* — the append never finished, the same outcome as a crash just
before it — and a reader drops it (counted in ``torn_tails``); the next
append truncates it first.  Any other undecodable line is corruption and
raises :class:`~repro.errors.StableStorageError`.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, Iterator, List, Set

from repro.errors import StableStorageError
from repro.stable.snapshot import freeze

_KEY_SAFE = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-."
)


class StableStorage:
    """Abstract crash-surviving key/value store."""

    def put(self, key: str, value: Any) -> None:
        raise NotImplementedError

    def get(self, key: str, default: Any = None) -> Any:
        raise NotImplementedError

    def delete(self, key: str) -> None:
        raise NotImplementedError

    def keys(self) -> Iterator[str]:
        raise NotImplementedError

    def append(self, key: str, record: Any) -> None:
        """Add ``record`` to the end of log ``key`` (O(1) in the log's length)."""
        raise NotImplementedError

    def read_log(self, key: str) -> List[Any]:
        """Every record appended to log ``key``, in order (``[]`` if none)."""
        raise NotImplementedError

    def __contains__(self, key: str) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel


class InMemoryStableStorage(StableStorage):
    """Dictionary-backed stable storage holding frozen values.

    ``put`` freezes (no deep copy; caller mutations cannot leak in because
    mutable containers are converted, not aliased).  ``get`` hands out the
    stored frozen view directly — an O(1) read; mutation attempts raise and
    ``thaw()`` is the explicit escape hatch.
    """

    def __init__(self) -> None:
        self._data: Dict[str, Any] = {}
        self._logs: Dict[str, List[Any]] = {}

    def put(self, key: str, value: Any) -> None:
        self._data[key] = freeze(value)

    def get(self, key: str, default: Any = None) -> Any:
        return self._data.get(key, default)

    def delete(self, key: str) -> None:
        self._data.pop(key, None)
        self._logs.pop(key, None)

    def keys(self) -> Iterator[str]:
        return iter(sorted(self._data.keys() | self._logs.keys()))

    def append(self, key: str, record: Any) -> None:
        self._logs.setdefault(key, []).append(freeze(record))

    def read_log(self, key: str) -> List[Any]:
        return list(self._logs.get(key, ()))

    def __contains__(self, key: str) -> bool:
        return key in self._data


def escape_key(key: str) -> str:
    """Reversible, filesystem-safe encoding of a storage key.

    Safe characters pass through; anything else (including ``/``, ``%`` and
    a *leading* dot, which would collide with hidden/tmp files) becomes
    ``%XX`` per UTF-8 byte.  Distinct keys always map to distinct names —
    the old ``os.sep -> "_"`` squash mapped ``a/b`` and ``a_b`` to the same
    file.
    """
    out = []
    for index, char in enumerate(key):
        if char in _KEY_SAFE and not (char == "." and index == 0):
            out.append(char)
        else:
            out.extend("%{:02X}".format(byte) for byte in char.encode("utf-8"))
    return "".join(out)


def unescape_key(name: str) -> str:
    """Inverse of :func:`escape_key`."""
    raw = bytearray()
    index = 0
    while index < len(name):
        char = name[index]
        if char == "%":
            raw.extend(bytes.fromhex(name[index + 1:index + 3]))
            index += 3
        else:
            raw.extend(char.encode("utf-8"))
            index += 1
    return raw.decode("utf-8")


class FileStableStorage(StableStorage):
    """One JSON file per key under ``root``; writes are atomic renames.

    The atomic rename is what makes this *stable*: a crash mid-write leaves
    either the old value or the new value, never a torn record — the
    Lampson-Sturgis contract the paper cites.  Keys round-trip through
    :func:`escape_key`, so ``keys()`` returns exactly what was put.  Log
    keys live beside them as ``<key>.log``, one JSON line per record.
    """

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        #: Torn final log lines that ``read_log`` dropped (module docstring).
        self.torn_tails = 0
        # Log files this object knows to end in a newline: its own appends
        # write whole lines, so only the first touch has to look.
        self._intact_logs: Set[str] = set()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{escape_key(key)}.json")

    def _log_path(self, key: str) -> str:
        return os.path.join(self.root, f"{escape_key(key)}.log")

    def _encode(self, key: str, value: Any) -> str:
        try:
            return json.dumps(value)
        except (TypeError, ValueError) as exc:
            raise StableStorageError(f"value for {key!r} is not JSON-serialisable: {exc}") from exc

    def _write_atomic(self, path: str, payload: str) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except OSError:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def put(self, key: str, value: Any) -> None:
        self._write_atomic(self._path(key), self._encode(key, value))

    def get(self, key: str, default: Any = None) -> Any:
        path = self._path(key)
        if not os.path.exists(path):
            return default
        try:
            with open(path) as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise StableStorageError(f"corrupt stable record {key!r}: {exc}") from exc

    def delete(self, key: str) -> None:
        for path in (self._path(key), self._log_path(key)):
            if os.path.exists(path):
                os.unlink(path)

    def keys(self) -> Iterator[str]:
        found = [
            unescape_key(os.path.splitext(name)[0])
            for name in os.listdir(self.root)
            if name.endswith((".json", ".log")) and not name.startswith(".tmp-")
        ]
        return iter(sorted(found))

    def _append_lines(self, key: str, lines: str) -> None:
        """Append newline-terminated ``lines`` to the log file of ``key``.

        A torn tail left by an earlier crash is cut off first, or the new
        record would be glued onto it and read back as interior corruption.
        """
        path = self._log_path(key)
        if path not in self._intact_logs:
            try:
                with open(path, "rb+") as handle:
                    data = handle.read()
                    if not data.endswith(b"\n"):
                        handle.truncate(data.rfind(b"\n") + 1)
            except FileNotFoundError:
                pass
            self._intact_logs.add(path)
        try:
            with open(path, "a") as handle:
                handle.write(lines)
        except OSError:
            self._intact_logs.discard(path)  # a partial write may have torn it
            raise

    def append(self, key: str, record: Any) -> None:
        self._append_lines(key, self._encode(key, record) + "\n")

    def read_log(self, key: str) -> List[Any]:
        try:
            with open(self._log_path(key)) as handle:
                lines = handle.read().split("\n")
            if lines.pop():  # text after the last newline: the append never completed
                self.torn_tails += 1
            return [json.loads(line) for line in lines]
        except FileNotFoundError:
            return []
        except (OSError, ValueError) as exc:
            raise StableStorageError(f"corrupt stable log {key!r}: {exc}") from exc


class WriteBehindFileStableStorage(FileStableStorage):
    """Batched :class:`FileStableStorage` with a group-commit ``flush``.

    Puts, deletes and log appends buffer in memory (values are JSON-encoded
    immediately, preserving both the put-time error contract and put-time
    value capture) and reads are served buffer-first, so the store is always
    read-your-writes consistent.  ``flush`` applies the whole batch: every
    buffered value is written to a temp file first, then the batch is
    published with one atomic rename per key — a flushed record is never
    torn, exactly the per-key contract of the unbatched backend — and each
    log's buffered lines are appended in one write.  Durability is batch-
    granular by design (write-behind): records buffered since the last
    flush are lost on a crash, which the checkpoint layer tolerates because
    an uncommitted ``newchkpt`` may always be aborted.
    """

    _DELETED = object()

    def __init__(self, root: str, flush_every: int = 64):
        super().__init__(root)
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.flush_every = flush_every
        self.flushes = 0
        self._buffer: Dict[str, Any] = {}
        self._log_buffer: Dict[str, List[str]] = {}  # key -> lines not yet on disk
        self._ops_since_flush = 0

    def _note_op(self) -> None:
        # The threshold counts operations, not distinct keys: a checkpoint
        # workload rewrites the same few keys over and over, and batching
        # must still bound how much history a crash can lose.
        self._ops_since_flush += 1
        if self._ops_since_flush >= self.flush_every:
            self.flush()

    def put(self, key: str, value: Any) -> None:
        self._buffer[key] = self._encode(key, value)
        self._note_op()

    def get(self, key: str, default: Any = None) -> Any:
        if key in self._buffer:
            entry = self._buffer[key]
            return default if entry is self._DELETED else json.loads(entry)
        return super().get(key, default)

    def delete(self, key: str) -> None:
        self._buffer[key] = self._DELETED
        self._log_buffer.pop(key, None)
        self._note_op()

    def keys(self) -> Iterator[str]:
        on_disk = set(super().keys())
        for key, entry in self._buffer.items():
            if entry is self._DELETED:
                on_disk.discard(key)
            else:
                on_disk.add(key)
        on_disk.update(self._log_buffer)
        return iter(sorted(on_disk))

    def append(self, key: str, record: Any) -> None:
        self._log_buffer.setdefault(key, []).append(self._encode(key, record) + "\n")
        self._note_op()

    def read_log(self, key: str) -> List[Any]:
        deleted = self._buffer.get(key) is self._DELETED
        on_disk = [] if deleted else super().read_log(key)
        return on_disk + [json.loads(line) for line in self._log_buffer.get(key, ())]

    def flush(self) -> None:
        """Group-commit the buffered batch to disk."""
        self._ops_since_flush = 0
        if not self._buffer and not self._log_buffer:
            return
        staged = []
        try:
            for key, entry in sorted(self._buffer.items()):
                if entry is self._DELETED:
                    continue
                fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-")
                with os.fdopen(fd, "w") as handle:
                    handle.write(entry)
                staged.append((tmp, self._path(key)))
        except OSError:
            for tmp, _path in staged:
                if os.path.exists(tmp):
                    os.unlink(tmp)
            raise
        for tmp, path in staged:
            os.replace(tmp, path)
        for key, entry in self._buffer.items():
            if entry is self._DELETED:
                super().delete(key)
        self._buffer.clear()
        for key in sorted(self._log_buffer):
            self._append_lines(key, "".join(self._log_buffer[key]))
            del self._log_buffer[key]
        self.flushes += 1

    def close(self) -> None:
        self.flush()
