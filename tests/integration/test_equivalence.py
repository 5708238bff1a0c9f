"""Frozen-snapshot storage is observationally equivalent to deep-copy storage.

Freezing must preserve protocol semantics bit-for-bit: the same workload on
the same seeds has to produce the identical trace (every event, in order,
with every field) and the identical committed-checkpoint ledger whether
stable storage deep-copies values or freezes them.  Hypothesis drives the
workload parameters; any divergence would mean frozen views leak semantics
into the protocol.
"""

import copy
from typing import Any, Dict, Iterator, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stable import InMemoryStableStorage, StableStorage
from repro.testing import build_sim, run_random_workload


class DeepCopyStableStorage(StableStorage):
    """The reference backend: deep copy on every put *and* get.

    Semantically interchangeable with :class:`InMemoryStableStorage`, with
    no sharing to get wrong; ``tests/stable/test_storage.py`` holds it to
    the same contract as the real backends.
    """

    def __init__(self) -> None:
        self._data: Dict[str, Any] = {}
        self._logs: Dict[str, List[Any]] = {}

    def put(self, key: str, value: Any) -> None:
        self._data[key] = copy.deepcopy(value)

    def get(self, key: str, default: Any = None) -> Any:
        if key not in self._data:
            return default
        return copy.deepcopy(self._data[key])

    def delete(self, key: str) -> None:
        self._data.pop(key, None)
        self._logs.pop(key, None)

    def keys(self) -> Iterator[str]:
        return iter(sorted(self._data.keys() | self._logs.keys()))

    def append(self, key: str, record: Any) -> None:
        self._logs.setdefault(key, []).append(copy.deepcopy(record))

    def read_log(self, key: str) -> List[Any]:
        return copy.deepcopy(self._logs.get(key, []))

    def __contains__(self, key: str) -> bool:
        return key in self._data


def observe(storage_factory, n, seed, duration, error_rate):
    sim, procs = build_sim(n=n, seed=seed, storage_factory=storage_factory)
    run_random_workload(
        sim, procs,
        duration=duration,
        checkpoint_rate=0.15,
        error_rate=error_rate,
    )
    trace = [
        (event.time, event.kind, event.pid, sorted(event.fields.items()))
        for event in sim.trace.events
    ]
    ledgers = {pid: proc.committed_history for pid, proc in procs.items()}
    final = {pid: proc.store.oldchkpt for pid, proc in procs.items()}
    return trace, ledgers, final


@settings(max_examples=8, deadline=None)
@given(
    n=st.integers(2, 4),
    seed=st.integers(0, 10_000),
    duration=st.floats(10.0, 30.0),
    error_rate=st.sampled_from([0.0, 0.02]),
)
def test_snapshot_and_deepcopy_storage_are_equivalent(n, seed, duration, error_rate):
    deep = observe(
        lambda pid: DeepCopyStableStorage(), n, seed, duration, error_rate
    )
    snap = observe(
        lambda pid: InMemoryStableStorage(), n, seed, duration, error_rate
    )
    deep_trace, deep_ledgers, deep_final = deep
    snap_trace, snap_ledgers, snap_final = snap
    assert snap_trace == deep_trace
    # FrozenDict/FrozenList subclass dict/list, so == compares structure.
    assert snap_ledgers == deep_ledgers
    assert snap_final == deep_final
