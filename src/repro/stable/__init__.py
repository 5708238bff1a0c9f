"""Stable storage, frozen snapshots, and the checkpoint store."""

from repro.stable.checkpoint import CheckpointStore
from repro.stable.snapshot import FrozenDict, FrozenList, freeze, thaw
from repro.stable.storage import (
    FileStableStorage,
    InMemoryStableStorage,
    StableStorage,
    WriteBehindFileStableStorage,
    escape_key,
    unescape_key,
)

__all__ = [
    "CheckpointStore",
    "FileStableStorage",
    "FrozenDict",
    "FrozenList",
    "InMemoryStableStorage",
    "StableStorage",
    "WriteBehindFileStableStorage",
    "escape_key",
    "freeze",
    "thaw",
    "unescape_key",
]
