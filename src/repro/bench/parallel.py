"""Parallel runner for the benchmark CLI (``--parallel N``).

Experiments in the registry are independent of each other (each builds its
own simulations from explicit seeds), so running a list of experiment names
is embarrassingly parallel.  This module fans the work out over a
:class:`~concurrent.futures.ProcessPoolExecutor`:

* **Processes, not threads** — experiments are pure-Python CPU work, so
  threads would serialise on the GIL.
* **Honest worker counts** — requested workers are capped at the number of
  names *and* the number of visible CPUs: fanning 2 processes out on a
  1-core container is strictly slower than the serial loop (process spawn +
  pickling with zero extra compute).  When the cap resolves to one worker
  the run short-circuits to a plain in-process loop.
* **One pool** — the executor is created once and reused (worker start-up
  is the dominant fixed cost).
* **Order-stable merging** — results are collected with ``executor.map``
  (submission order), so the merged artifact (tables, ``--json`` output) is
  byte-identical to a serial run.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0


def _visible_cpus() -> int:
    """CPUs the scheduler will actually give us (monkeypatchable in tests)."""
    return os.cpu_count() or 1


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared executor, grown (never shrunk) to ``workers`` processes.

    Reused across calls so a benchmark session pays worker start-up once
    per process lifetime, not once per measurement.
    """
    global _POOL, _POOL_WORKERS
    if _POOL is None or _POOL_WORKERS < workers:
        if _POOL is not None:
            _POOL.shutdown()
        _POOL = ProcessPoolExecutor(max_workers=workers)
        _POOL_WORKERS = workers
    return _POOL


def shutdown_pool() -> None:
    """Tear down the shared executor (tests; harmless if never started)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None
        _POOL_WORKERS = 0


def _run_named(name: str) -> Tuple[str, List[Dict[str, Any]]]:
    """Worker entry point: run one registered experiment by name.

    Imported lazily to avoid a circular import (``__main__`` imports this
    module at the top level).  Must stay a module-level function so it is
    picklable by the process pool.
    """
    from repro.bench.__main__ import run_experiment

    return run_experiment(name)


def run_registry_parallel(
    names: Sequence[str], workers: int
) -> List[Tuple[str, List[Dict[str, Any]]]]:
    """Run registered experiments across ``workers`` processes.

    Returns ``(title, rows)`` pairs in the order of ``names`` (not in
    completion order), so callers print and serialise the same artifact a
    serial run produces.
    """
    workers = min(workers, len(names), _visible_cpus())
    if workers <= 1:
        return [_run_named(name) for name in names]
    return list(get_pool(workers).map(_run_named, names))
