"""The Cluster harness: real sockets, real storage dirs, a real crash.

The acceptance scenario for the live runtime: a TCP cluster under a random
workload loses a node mid-run, brings it back on the same endpoint from its
on-disk storage, and still reaches a committed, consistency-checked global
checkpoint — verified from the merged per-node JSONL traces, the way an
operator of a real deployment would have to.
"""

import asyncio
import os

import pytest

from repro.analysis import check_c1_from_trace
from repro.core import ProtocolConfig
from repro.runtime import Cluster
from repro.workloads import RandomPeerWorkload


def run(coro, timeout=120.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def build(tmp_path, transport, n=3, seed=5, time_scale=0.02):
    cluster = Cluster(
        n=n,
        root=str(tmp_path / "cluster"),
        seed=seed,
        transport=transport,
        config=ProtocolConfig(checkpoint_interval=6.0, failure_resilience=True),
        time_scale=time_scale,
        detector_latency=2.0,
    )
    RandomPeerWorkload(message_rate=1.0, duration=20.0).install(
        cluster.runtime, cluster.procs
    )
    return cluster


def everyone_committed_twice(cluster):
    # Birth checkpoint is #1; a second entry means a full b1-b4 instance
    # (request, acks, ready, commit) completed on the live kernel.
    return all(count >= 2 for count in cluster.committed_counts().values())


def test_loopback_cluster_reaches_committed_consistent_state(tmp_path):
    cluster = build(tmp_path, transport="loopback")

    async def scenario():
        await cluster.start()
        await cluster.wait_until(
            lambda: everyone_committed_twice(cluster), timeout=120.0, what="committed checkpoints"
        )
        await cluster.shutdown()

    run(scenario())
    check_c1_from_trace(cluster.merged_index(), pids=list(cluster.procs))
    assert cluster.summary()["timer_errors"] == 0


def test_tcp_cluster_survives_kill_and_restart(tmp_path):
    cluster = build(tmp_path, transport="tcp")
    cluster.kill(1, at=7.0)
    cluster.restart(1, at=13.0)

    async def scenario():
        await cluster.start()
        ports_before = dict(cluster.transport.ports)
        await cluster.wait_until(
            lambda: not cluster.runtime.is_alive(1), timeout=60.0, what="the kill"
        )
        await cluster.wait_until(
            lambda: cluster.runtime.is_alive(1), timeout=60.0, what="the restart"
        )
        await cluster.wait_until(
            lambda: everyone_committed_twice(cluster), timeout=240.0, what="committed checkpoints"
        )
        await cluster.shutdown()
        return ports_before

    ports_before = run(scenario(), timeout=240.0)

    # The node came back on its original endpoint ...
    assert cluster.transport.ports == ports_before
    # ... recovered from a storage directory that really exists on disk ...
    assert os.path.isdir(os.path.join(cluster.root, "node-1"))
    # ... and the merged per-node traces certify a C1-consistent line.
    index = cluster.merged_index()
    check_c1_from_trace(index, pids=list(cluster.procs))
    assert "crash" in index.kinds() and "recover" in index.kinds()
    assert cluster.summary()["timer_errors"] == 0


def test_cluster_traces_are_sharded_per_node(tmp_path):
    cluster = build(tmp_path, transport="loopback")

    async def scenario():
        await cluster.start()
        await cluster.run_for(8.0)
        await cluster.shutdown()

    run(scenario())
    names = {os.path.basename(path) for path in cluster.router.paths}
    assert {"node-0.jsonl", "node-1.jsonl", "node-2.jsonl"} <= names
    index = cluster.merged_index()
    # Dense renumbering and non-decreasing time after the merge.
    events = index.by_kind(*index.kinds())
    assert [event.index for event in events] == list(range(len(events)))
    times = [event.time for event in events]
    assert times == sorted(times)
    assert len(events) == cluster.runtime.trace.events_recorded


def test_quiesce_drains_open_rounds_under_sustained_traffic(tmp_path):
    # quiesce() is called while the workload is still actively sending
    # (duration far beyond the quiesce point): autonomous initiation stops,
    # open 2PC rounds drain to zero even as normal traffic keeps flowing,
    # and the merged trace's recovery line is C1-clean.
    cluster = Cluster(
        n=3,
        root=str(tmp_path / "cluster"),
        seed=5,
        transport="loopback",
        config=ProtocolConfig(checkpoint_interval=4.0, failure_resilience=True),
        time_scale=0.01,
        detector_latency=2.0,
    )
    RandomPeerWorkload(message_rate=2.0, step_rate=0.5, duration=1000.0).install(
        cluster.runtime, cluster.procs
    )

    async def scenario():
        await cluster.start()
        await cluster.wait_until(
            lambda: everyone_committed_twice(cluster),
            timeout=120.0, what="committed checkpoints",
        )
        sent_before = cluster.runtime.network.normal_sent
        await cluster.quiesce()
        assert cluster.open_instances() == 0
        # The workload was still live across the quiesce window.
        assert cluster.runtime.network.normal_sent > sent_before
        # Initiation stayed off: nothing reopened after the drain.
        await cluster.run_for(3.0)
        assert cluster.open_instances() == 0
        await cluster.shutdown()
        return sent_before

    run(scenario())
    check_c1_from_trace(cluster.merged_index(), pids=list(cluster.procs))
    assert cluster.summary()["timer_errors"] == 0


def test_cluster_requires_two_nodes(tmp_path):
    from repro.errors import SimulationError

    with pytest.raises(SimulationError):
        Cluster(n=1, root=str(tmp_path / "solo"))


def test_live_cluster_grows_and_shrinks_mid_run(tmp_path):
    # The membership front doors on the live kernel: a brand-new node joins
    # a running TCP cluster on its own endpoint, becomes a full protocol
    # participant (its checkpoint instance commits), then another node
    # gracefully leaves, handing its obligations to a successor — and the
    # merged trace still certifies a C1-consistent recovery line.
    cluster = build(tmp_path, transport="tcp")

    async def scenario():
        await cluster.start()
        await cluster.wait_until(
            lambda: everyone_committed_twice(cluster),
            timeout=120.0, what="committed checkpoints",
        )
        cluster.join(3)
        node = cluster.procs[3]
        assert 3 in cluster.transport.ports
        node.send_app_message(0, "hello")
        cluster.procs[0].send_app_message(3, "back")
        await cluster.run_for(2.0)
        node.initiate_checkpoint()
        await cluster.wait_until(
            lambda: cluster.committed_counts().get(3, 0) >= 2,
            timeout=120.0, what="the joiner's first committed instance",
        )
        cluster.leave(1, successor=0)
        # The handoff travels to the successor as an ordinary control
        # message over real TCP — wait for acceptance, don't race it.
        await cluster.wait_until(
            lambda: 1 in cluster.procs[0].engine.adopted,
            timeout=120.0, what="the successor adopting P1's obligations",
        )
        await cluster.run_for(2.0)
        await cluster.shutdown()

    run(scenario(), timeout=240.0)

    assert 1 not in cluster.procs and 3 in cluster.procs
    index = cluster.merged_index()
    joins = index.by_kind("join")
    assert [e.pid for e in joins] == [3]
    leaves = index.by_kind("leave")
    assert [e.pid for e in leaves] == [1]
    assert leaves[0].fields["successor"] == 0
    handoffs = index.by_kind("handoff")
    assert [e.pid for e in handoffs] == [0]
    # Survivors know P1 is settled history, not a future recruit.
    for pid in (0, 2, 3):
        assert 1 in cluster.procs[pid].engine.departed_peers
    check_c1_from_trace(index)
    assert cluster.summary()["timer_errors"] == 0
