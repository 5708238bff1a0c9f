"""Unit tests for the parallel registry runner."""

from repro.bench import parallel as P
from repro.bench.parallel import get_pool, run_registry_parallel, shutdown_pool


def test_registry_parallel_matches_serial():
    names = ["fig3", "fig1"]
    serial = run_registry_parallel(names, workers=1)
    parallel = run_registry_parallel(names, workers=2)
    assert [title for title, _ in parallel] == [title for title, _ in serial]
    assert [rows for _, rows in parallel] == [rows for _, rows in serial]


# ----------------------------------------------------------------------
# Honest worker clamping + the real pool path (forced via a fake CPU count)
# ----------------------------------------------------------------------

def test_registry_parallel_clamps_workers_to_cpus_and_names(monkeypatch):
    asked = []

    class Pool:
        def map(self, fn, names):
            return [(name, []) for name in names]

    monkeypatch.setattr(P, "get_pool", lambda workers: asked.append(workers) or Pool())
    monkeypatch.setattr(P, "_run_named", lambda name: (name, []))
    names = ["fig1", "fig2", "fig3"]
    monkeypatch.setattr(P, "_visible_cpus", lambda: 2)
    run_registry_parallel(names, workers=8)  # CPU cap
    monkeypatch.setattr(P, "_visible_cpus", lambda: 16)
    run_registry_parallel(names, workers=8)  # idle workers cost start-up for nothing
    run_registry_parallel(names, workers=2)  # request honored under the caps
    assert asked == [2, 3, 2]
    # One worker is the serial loop — never a pool.
    monkeypatch.setattr(P, "_visible_cpus", lambda: 1)
    run_registry_parallel(names, workers=8)  # the 1-core-container regression case
    run_registry_parallel(names, workers=0)
    run_registry_parallel(names[:1], workers=8)
    assert asked == [2, 3, 2]


def test_pool_is_shared_and_grow_only():
    try:
        pool2 = get_pool(2)
        assert get_pool(2) is pool2  # reused across calls
        pool4 = get_pool(4)
        assert pool4 is not pool2  # grown when more workers are needed
        assert get_pool(3) is pool4  # never shrunk back down
    finally:
        shutdown_pool()
