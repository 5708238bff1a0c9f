"""The sharded runtime: many worker kernels, one protocol, one trace.

The acceptance scenario for multi-process operation: pids placed by
consistent hashing across worker OS processes, intra-shard traffic on the
loopback fast path, inter-shard traffic on batched TCP links — and the
merged per-shard traces still satisfy the paper's C1 recovery-line
consistency after a mid-run kill and restart, exactly as a single-kernel
run does.
"""

import asyncio
import os
import signal

import pytest

from repro.analysis import check_c1_from_trace
from repro.core import ProtocolConfig
from repro.errors import SimulationError, TransportError
from repro.net.delay import FixedDelay
from repro.net.message import normal
from repro.runtime import Cluster, LoopbackTransport, wire
from repro.runtime.shard import (
    HashRing,
    ShardedCluster,
    ShardRuntime,
    ShardTransport,
    ShardWorker,
    WorkerSpec,
)
from repro.sim.node import Node
from repro.types import MessageId


# ----------------------------------------------------------------------
# HashRing: the pid -> shard agreement protocol
# ----------------------------------------------------------------------

def test_ring_is_deterministic_across_instances():
    # Two independently built rings (as parent and worker build them) must
    # agree on every placement — the map is shipped as (shards, replicas),
    # never as a table.
    a, b = HashRing(4), HashRing(4)
    assert [a.shard_of(pid) for pid in range(500)] == [
        b.shard_of(pid) for pid in range(500)
    ]


def test_ring_covers_every_shard_reasonably():
    assignment = HashRing(4).assignment(list(range(256)))
    sizes = [len(pids) for pids in assignment.values()]
    assert sum(sizes) == 256
    assert min(sizes) > 0  # no empty shard at this population
    assert max(sizes) < 256 // 4 * 3  # no shard hoards the ring


def test_ring_remap_is_incremental():
    # Consistent hashing's defining property: growing 4 -> 5 shards moves
    # only the pids whose arcs the new shard's points claim; everything
    # else keeps its owner.  (Modulo hashing would reshuffle nearly all.)
    before, after = HashRing(4), HashRing(5)
    pids = range(1000)
    moved = sum(1 for pid in pids if before.shard_of(pid) != after.shard_of(pid))
    assert 0 < moved < 500  # far from a full reshuffle


def test_ring_rejects_degenerate_shapes():
    with pytest.raises(SimulationError):
        HashRing(0)
    with pytest.raises(SimulationError):
        HashRing(2, replicas=0)


# ----------------------------------------------------------------------
# The inter-shard link (two shard kernels in this process, real sockets)
# ----------------------------------------------------------------------

class Sink(Node):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = []

    def on_envelope(self, envelope):
        self.received.append(envelope)


def shard_kernel(shard, ring, pids):
    transport = ShardTransport(shard, ring)
    runtime = ShardRuntime(
        pids, seed=0, transport=transport, time_scale=0.01, delay_model=FixedDelay(0.0)
    )
    nodes = {pid: runtime.add_node(Sink(pid)) for pid in ring.assignment(pids)[shard]}
    return transport, runtime, nodes


def test_inter_shard_burst_is_written_as_encode_batch_buffers(monkeypatch):
    # The shard link is the same batched link TcpTransport uses: a queued
    # burst leaves as wire.encode_batch buffers (never per-frame joins), and
    # what the sender counts out the receiver counts in.
    ring, pids, burst = HashRing(2), list(range(8)), 48
    (out, sender, local), (into, receiver, remote) = (
        shard_kernel(shard, ring, pids) for shard in (0, 1)
    )
    src, dst = min(local), min(remote)
    written = []  # (frames, bytes) per encode_batch call

    def encode_batch(batch, real=wire.encode_batch):
        buffer = real(batch)
        written.append((len(batch), len(buffer)))
        return buffer

    def dumps_frame(envelope):
        raise AssertionError("per-frame encode on a shard link")

    monkeypatch.setattr(wire, "encode_batch", encode_batch)
    monkeypatch.setattr(wire, "dumps_frame", dumps_frame)

    async def scenario():
        addrs = {0: (out.host, await out.listen()), 1: (into.host, await into.listen())}
        for transport in (out, into):
            transport.set_peers(addrs)
        await sender.start()
        await receiver.start()
        for i in range(burst):
            local[src].send(normal(src, dst, MessageId(src, i), label=1, body=None))
        await receiver.wait_until(
            lambda: len(remote[dst].received) == burst, timeout=60.0, what="the burst"
        )
        await sender.shutdown()
        await receiver.shutdown()

    asyncio.run(asyncio.wait_for(scenario(), 60))
    assert out.frames_sent == into.frames_received == burst
    assert out.batches_sent == len(written) < out.frames_sent
    assert sum(frames for frames, _ in written) == burst
    assert out.bytes_sent == sum(size for _, size in written)
    assert out.intra_delivered == 0 and into.misrouted == 0 and into.links_rejected == 0
    assert [e.msg_id.send_index for e in remote[dst].received] == list(range(burst))


def test_retired_json_codec_is_rejected_by_name(tmp_path):
    # There is one wire format and every transport encodes with it: the
    # knob that used to select wire v1 (or switch the loopback round-trip
    # off) names the removal; the one surviving value keeps working.
    for transport in ("tcp", "loopback", LoopbackTransport()):
        for codec in ("json", False, None, "morse"):
            with pytest.raises(TransportError, match="JSON wire v1 was removed"):
                Cluster(n=2, root=str(tmp_path / "bad"), transport=transport, codec=codec)
    for codec in ("binary", True):
        Cluster(n=2, root=str(tmp_path / f"ok-{codec}"), transport="loopback", codec=codec)
    Cluster(n=2, root=str(tmp_path / "tcp"), transport="tcp", codec="binary")


# ----------------------------------------------------------------------
# The worker is a Cluster over its slice (in this process, no sockets)
# ----------------------------------------------------------------------

def worker_with_slice(tmp_path, size):
    """A two-shard worker whose ring slice holds exactly ``size`` pids."""
    ring = HashRing(2)
    for n in range(2, 64):
        for shard, pids in ring.assignment(list(range(n))).items():
            if len(pids) == size:
                root = str(tmp_path / f"slice-{size}")
                return ShardWorker(WorkerSpec(
                    shard=shard, shards=2,
                    cluster=dict(n=n, seed=0, root=root, time_scale=0.01),
                ))
    raise AssertionError(f"no two-shard ring slice of {size} pid(s) below n=64")


def spooler_hosts(cluster):
    groups = {pid: cluster.runtime.network.spooler_for(pid) for pid in cluster.procs}
    return {
        pid: [replica.host for replica in group.replicas]
        for pid, group in groups.items() if group is not None
    }


def test_no_spooler_group_is_hosted_by_its_owner(tmp_path):
    # One rule for every cluster: the next two neighbours in hosted order,
    # never the owner — its replica would answer "alive" exactly when the
    # spool is not needed, and hide rule 3's inquire-everyone fallback when
    # the real host is dead.
    pair = Cluster(n=2, root=str(tmp_path / "pair"), transport="loopback")
    assert spooler_hosts(pair) == {0: [1], 1: [0]}
    five = Cluster(n=5, root=str(tmp_path / "five"), transport="loopback")
    assert spooler_hosts(five) == {p: [(p + 1) % 5, (p + 2) % 5] for p in range(5)}
    for size in (1, 2, 3):
        worker = worker_with_slice(tmp_path, size)
        hosted = sorted(worker.procs)
        assert len(hosted) == size
        hosts = spooler_hosts(worker)
        assert sorted(hosts) == (hosted if size > 1 else [])
        for pid, replicas in hosts.items():
            assert pid not in replicas and set(replicas) <= set(hosted)
            assert len(replicas) == len(set(replicas)) == min(2, size - 1)


def test_pid_joining_a_shard_gets_a_spooler_group(tmp_path):
    # The worker admits a joiner through Cluster's one admit path, so a
    # message for a crashed joiner is spooled on its neighbours, not dropped.
    worker = worker_with_slice(tmp_path, 3)
    joiner = next(
        pid for pid in range(worker.spec.cluster["n"], 256)
        if worker.ring.shard_of(pid) == worker.spec.shard
    )
    stranger = next(
        pid for pid in range(worker.spec.cluster["n"], 256)
        if worker.ring.shard_of(pid) != worker.spec.shard
    )
    for pid in sorted(worker.procs):  # what start() does, minus the event loop
        worker.procs[pid].on_start()
    hosted_before = sorted(worker.procs)
    assert worker.apply_churn([
        {"kind": "join", "pid": joiner}, {"kind": "join", "pid": stranger},
    ]) == 1
    assert sorted(worker.procs) == sorted(hosted_before + [joiner])
    assert {joiner, stranger} <= set(worker.runtime.process_ids)
    hosts = spooler_hosts(worker)[joiner]
    assert len(hosts) == 2 and set(hosts) <= set(hosted_before)
    assert worker.runtime.network.spooler_for(stranger) is None
    assert worker.summary()["nodes"] == len(hosted_before) + 1
    worker.runtime.trace.close()


# ----------------------------------------------------------------------
# The sharded cluster (spawns real worker processes)
# ----------------------------------------------------------------------

def build(tmp_path, n=6, shards=2, seed=5, **kwargs):
    kwargs.setdefault("config", ProtocolConfig(
        checkpoint_interval=5.0, failure_resilience=True
    ))
    kwargs.setdefault("workload", dict(message_rate=1.0, step_rate=0.5, duration=20.0))
    kwargs.setdefault("time_scale", 0.01)
    return ShardedCluster(
        n=n, root=str(tmp_path / "sharded"), shards=shards, seed=seed, **kwargs
    )


def test_two_shard_cluster_commits_and_merged_trace_passes_c1(tmp_path):
    cluster = build(tmp_path)
    try:
        cluster.start()
        cluster.wait_until_committed(2, timeout=1200.0)
        # Quiesce before the cut: autonomous initiation stops, open 2PC
        # rounds drain, so no tree is cut between root and cohort commits.
        cluster.quiesce()
        polls = cluster.wait_until(lambda polls: True, what="one more poll")
        assert sum(p["open_instances"] for p in polls) == 0
        cluster.shutdown()
    finally:
        cluster.close()

    summary = cluster.summary()
    errors = [e for s in summary["per_shard"] for e in s["timer_errors"]]
    assert errors == []
    assert summary["misrouted"] == 0
    # Traffic really crossed the process boundary AND used the fast path.
    # (Shutdown is staggered, so a frame written to an already-stopped
    # peer may go unread — received can trail sent by the tail in flight.)
    assert summary["frames_sent"] > 0
    assert 0 < summary["frames_received"] <= summary["frames_sent"]
    assert summary["intra_delivered"] > 0
    assert summary["batches_sent"] <= summary["frames_sent"]

    index = cluster.merged_index()
    # The merged index holds every event every shard recorded.
    assert index.events_indexed == summary["trace_events"]
    assert index.truncated_lines == 0
    check_c1_from_trace(index, pids=list(range(cluster.n)))


def test_sharded_kill_restart_recovers_and_stays_consistent(tmp_path):
    cluster = build(tmp_path)
    victim = 1
    try:
        cluster.start()
        cluster.run_for(6.0)
        cluster.kill(victim)
        # Only the owning shard's poll lists the victim; it must go down.
        polls = cluster.wait_until(
            lambda polls: not any(p["alive"].get(victim, False) for p in polls),
            timeout=60.0, what="the kill",
        )
        assert any(victim in p["alive"] for p in polls)
        cluster.run_for(4.0)
        cluster.restart(victim)
        cluster.wait_until_committed(2, timeout=1200.0)
        # The wait returns on a commit wave; cutting there without draining
        # reads as a transient C1 violation about once in fifty runs.
        cluster.quiesce()
        cluster.shutdown()
    finally:
        cluster.close()

    summary = cluster.summary()
    errors = [e for s in summary["per_shard"] for e in s["timer_errors"]]
    assert errors == []
    assert all(count >= 2 for count in summary["committed"].values())
    check_c1_from_trace(cluster.merged_index(), pids=list(range(cluster.n)))


def test_protocol_traffic_drains_over_both_intra_and_inter_shard_planes(tmp_path):
    # Conservation across the process boundary, on the ordinary protocol
    # nodes under RandomPeerWorkload: once the cluster is quiet, every
    # envelope that took the loopback path or left as an inter-shard frame
    # was delivered exactly once — none lost, duplicated or misrouted.
    cluster = build(tmp_path, n=8)
    planes = ("frames_sent", "intra_delivered", "delivered")
    try:
        cluster.start()
        cluster.wait_until_committed(2, timeout=1200.0)
        cluster.run_for(20.0)  # past the workload's duration: no new sends
        cluster.quiesce()
        summary, previous = cluster.summary(), None
        while previous is None or any(summary[k] != previous[k] for k in planes):
            cluster.run_for(10.0)  # 20x the link delay between two looks
            summary, previous = cluster.summary(), summary
        cluster.shutdown()
    finally:
        cluster.close()

    assert summary["timer_errors"] == 0
    assert summary["frames_sent"] > 0  # some pairs crossed shards
    assert summary["intra_delivered"] > 0  # some stayed local
    assert summary["dropped"] == summary["spooled"] == summary["misrouted"] == 0
    assert summary["frames_sent"] + summary["intra_delivered"] == summary["delivered"]


def test_worker_errors_surface_in_the_parent(tmp_path):
    cluster = build(
        tmp_path, n=4, shards=2, config=None, workload=None,
        detector_latency=None, spoolers=False, delay=0.0, time_scale=0.005,
    )
    try:
        cluster.start()
        # Recovering a process that never crashed raises inside the worker
        # kernel; the pipe protocol must carry that back as an exception
        # naming the shard, not hang or silently drop it.
        with pytest.raises(SimulationError, match="worker failed"):
            cluster.restart(0)
        # Unknown pids fail at the front door with a KeyError naming the
        # pid and the ring's population — never deep inside HashRing.
        with pytest.raises(KeyError, match=r"unknown pid P99.*pids 0\.\.3"):
            cluster.kill(99)
        with pytest.raises(KeyError, match="unknown pid P-1"):
            cluster.kill(-1, at=1.0)
        with pytest.raises(KeyError, match="unknown pid P4"):
            cluster.restart(4, at=1.0)
        cluster.shutdown()
    finally:
        cluster.close()


def test_a_killed_worker_fails_requests_with_the_shard_named(tmp_path):
    cluster = build(
        tmp_path, n=4, shards=2, config=None, workload=None,
        detector_latency=None, spoolers=False, delay=0.0, time_scale=0.005,
    )
    survivor, victim = cluster._workers
    try:
        cluster.start()
        os.kill(victim.process.pid, signal.SIGKILL)
        victim.process.join(timeout=30.0)
        # The send to the dead worker's pipe fails before any liveness
        # poll could: it must still name the shard, not leak BrokenPipeError.
        with pytest.raises(SimulationError, match=r"shard 1 worker died \(exit -9\)"):
            cluster.summary()
    finally:
        cluster.close()
    assert not survivor.process.is_alive()
    assert survivor.process.exitcode is not None


def test_front_door_routes_by_pid_without_caller_knowing_shards(tmp_path):
    cluster = build(
        tmp_path, n=6, shards=3, config=None, workload=None,
        detector_latency=None, spoolers=False, delay=0.0, time_scale=0.005,
    )
    try:
        # Every pid has exactly one owner and the owners partition the pids.
        seen = []
        for pid in range(cluster.n):
            owner = cluster.owner(pid)
            assert pid in owner.pids
            seen.append(owner.shard)
        assert set(seen) == set(range(3))
        all_pids = sorted(pid for w in cluster._workers for pid in w.pids)
        assert all_pids == list(range(cluster.n))
        cluster.shutdown()
    finally:
        cluster.close()
