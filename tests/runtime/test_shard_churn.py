"""Membership churn on the sharded runtime (real worker OS processes).

Two claims under test: (1) satellite efficiency — however many transitions
a churn batch carries, the parent sends exactly ONE pipe message per
shard, not a per-pid fan-out; (2) end-to-end correctness — a join, a
graceful leave with cross-process handoff, and a kill/restart can all
land mid-run and the merged trace still passes the (churn-tolerant)
recovery-line battery.
"""

import pytest

from repro.analysis import check_c1_from_trace
from repro.core import ProtocolConfig
from repro.errors import SimulationError
from repro.runtime.shard import ShardedCluster
from repro.tracekinds import K_HANDOFF, K_JOIN, K_LEAVE


def build(tmp_path, n=6, shards=2, seed=5, **kwargs):
    kwargs.setdefault("config", ProtocolConfig(
        checkpoint_interval=5.0, failure_resilience=True
    ))
    kwargs.setdefault("workload", dict(message_rate=1.0, step_rate=0.5, duration=20.0))
    kwargs.setdefault("time_scale", 0.01)
    return ShardedCluster(
        n=n, root=str(tmp_path / "sharded"), shards=shards, seed=seed, **kwargs
    )


def spy_on_posts(cluster):
    """Wrap every worker handle's pipe-post with a command recorder."""
    posted = []

    def wrap(worker):
        original = worker.post

        def spy(command, payload=None):
            posted.append((worker.shard, command, payload))
            original(command, payload)

        worker.post = spy

    for worker in cluster._workers:
        wrap(worker)
    return posted


def test_churn_batch_costs_one_pipe_message_per_shard(tmp_path):
    cluster = build(tmp_path, n=8, shards=4, workload=None, config=None,
                    detector_latency=None, spoolers=False, delay=0.0,
                    time_scale=0.005)
    try:
        cluster.start()
        posted = spy_on_posts(cluster)
        # Six transitions in one batch: still exactly one post per worker.
        cluster.churn([
            {"kind": "kill", "pid": 0},
            {"kind": "kill", "pid": 1},
            {"kind": "kill", "pid": 2},
            {"kind": "restart", "pid": 0},
            {"kind": "restart", "pid": 1},
            {"kind": "restart", "pid": 2},
        ])
        churn_posts = [p for p in posted if p[1] == "churn"]
        assert len(churn_posts) == cluster.shards
        assert {shard for shard, _, _ in churn_posts} == set(range(cluster.shards))
        # Every worker received the full batch (it splits locally).
        assert all(len(payload) == 6 for _, _, payload in churn_posts)
        # The convenience front doors are one-op batches over the same
        # path: one post per shard each, never per-pid fan-out beyond it.
        del posted[:]
        cluster.kill(3)
        cluster.restart(3)
        assert [p[1] for p in posted] == ["churn"] * (2 * cluster.shards)
        cluster.shutdown()
    finally:
        cluster.close()


def test_churn_validates_before_posting_anything(tmp_path):
    cluster = build(tmp_path, n=4, shards=2, workload=None, config=None,
                    detector_latency=None, spoolers=False, delay=0.0,
                    time_scale=0.005)
    try:
        cluster.start()
        posted = spy_on_posts(cluster)
        with pytest.raises(KeyError, match="unknown pid"):
            cluster.churn([{"kind": "kill", "pid": 0}, {"kind": "kill", "pid": 99}])
        with pytest.raises(SimulationError, match="already a cluster member"):
            cluster.churn([{"kind": "join", "pid": 2}])
        with pytest.raises(KeyError, match="unknown successor"):
            cluster.churn([{"kind": "leave", "pid": 0, "successor": 42}])
        with pytest.raises(SimulationError, match="unknown churn op"):
            cluster.churn([{"kind": "detonate", "pid": 0}])
        # A rejected batch must not have reached any worker.
        assert [p for p in posted if p[1] == "churn"] == []
        cluster.shutdown()
    finally:
        cluster.close()


def test_join_leave_handoff_and_restart_across_shards(tmp_path):
    cluster = build(tmp_path)
    try:
        cluster.start()
        cluster.wait_until_committed(1, timeout=1200.0)
        # Grow by one, retire one with a handoff, and bounce one — as a
        # single batch where possible.
        cluster.join(6)
        assert cluster.summary()["nodes"] == cluster.n + 1  # the live count, as Cluster
        cluster.churn([
            {"kind": "leave", "pid": 1, "successor": 0},
            {"kind": "kill", "pid": 2},
        ])
        cluster.restart(2)
        cluster.wait_until_committed(2, timeout=1200.0)
        cluster.quiesce()
        cluster.shutdown()
    finally:
        cluster.close()

    summary = cluster.summary()
    errors = [e for s in summary["per_shard"] for e in s["timer_errors"]]
    assert errors == []
    # n + joins - leaves, and the workers' hosted counts add up to it.
    assert summary["nodes"] == cluster.n + 1 - 1
    assert sum(s["nodes"] for s in summary["per_shard"]) == summary["nodes"]
    assert sorted(p for s in summary["per_shard"] for p in s["pids"]) == [0, 2, 3, 4, 5, 6]

    index = cluster.merged_index()
    assert index.count(K_JOIN) == 1
    assert index.count(K_LEAVE) == 1
    assert index.count(K_HANDOFF) == 1
    joins = index.by_kind(K_JOIN)
    assert joins[0].pid == 6
    leaves = index.by_kind(K_LEAVE)
    assert leaves[0].pid == 1 and leaves[0].fields["successor"] == 0
    # The churn-tolerant battery: P6 first appears mid-trace, P1 departs.
    check_c1_from_trace(index)
