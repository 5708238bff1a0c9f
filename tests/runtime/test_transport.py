"""Transport semantics: loopback and TCP carry the same traffic contract."""

import asyncio
import struct

import pytest

from repro.core.messages import NormalBody
from repro.errors import TransportError, WireError
from repro.net.delay import FixedDelay, UniformDelay
from repro.net.message import normal
from repro.runtime import (
    AsyncRuntime,
    HashRing,
    LoopbackTransport,
    ShardTransport,
    TcpTransport,
    wire,
)
from repro.sim.node import Node
from repro.types import MessageId


def run(coro, timeout=60.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


class Sink(Node):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = []

    def on_envelope(self, envelope):
        self.received.append(envelope)


def build(transport, n=2, delay=None, seed=0):
    runtime = AsyncRuntime(
        seed=seed, transport=transport, delay_model=delay or FixedDelay(0.5),
        time_scale=0.01,
    )
    nodes = {i: runtime.add_node(Sink(i)) for i in range(n)}
    return runtime, nodes


def envelope(src, dst, idx, label=1):
    return normal(src, dst, MessageId(src, idx), label=label, body=None)


# ----------------------------------------------------------------------
# Loopback
# ----------------------------------------------------------------------

def test_loopback_delivers_and_counts():
    runtime, nodes = build(LoopbackTransport())

    async def scenario():
        await runtime.start()
        nodes[0].send(envelope(0, 1, 0))
        nodes[0].send(envelope(0, 1, 1))
        await runtime.join(timeout=30.0)
        await runtime.shutdown()

    run(scenario())
    assert [e.msg_id.send_index for e in nodes[1].received] == [0, 1]
    assert runtime.network.normal_sent == 2
    assert runtime.network.delivered == 2
    assert runtime.transport.in_flight == 0
    # The network stamped transit times on the way through.
    assert all(e.deliver_time >= e.send_time for e in nodes[1].received)


def test_loopback_send_before_start_rejected():
    runtime, nodes = build(LoopbackTransport())
    with pytest.raises(TransportError):
        nodes[0].send(envelope(0, 1, 0))


def test_loopback_delivery_respects_crash_policy():
    runtime, nodes = build(LoopbackTransport())

    async def scenario():
        await runtime.start()
        runtime.crash(1)
        nodes[0].send(envelope(0, 1, 0))
        await runtime.join(timeout=30.0)
        await runtime.shutdown()

    run(scenario())
    assert nodes[1].received == []
    assert runtime.network.dropped == 1
    kinds = [e.kind for e in runtime.trace.events]
    assert "discard" in kinds


def test_loopback_codec_roundtrips_bodies():
    # Loopback pushes every envelope through the wire codec;
    # a non-serializable body must fail loudly at send time.
    runtime, nodes = build(LoopbackTransport())

    class Opaque:
        pass

    async def scenario():
        await runtime.start()
        bad = envelope(0, 1, 0)
        bad.body = Opaque()
        with pytest.raises(WireError):
            nodes[0].send(bad)
        await runtime.shutdown()

    run(scenario())


def test_loopback_nonfifo_reordering_happens():
    # With a wide uniform delay and many messages, at least one pair must
    # arrive out of send order (the paper's non-FIFO channel model).  The
    # seed makes the delay draws deterministic.
    runtime, nodes = build(LoopbackTransport(), delay=UniformDelay(0.1, 3.0), seed=7)

    async def scenario():
        await runtime.start()
        for i in range(20):
            nodes[0].send(envelope(0, 1, i))
        await runtime.join(timeout=60.0)
        await runtime.shutdown()

    run(scenario())
    order = [e.msg_id.send_index for e in nodes[1].received]
    assert sorted(order) == list(range(20))
    assert order != sorted(order)


# ----------------------------------------------------------------------
# TCP
# ----------------------------------------------------------------------

def test_tcp_delivers_over_real_sockets():
    transport = TcpTransport()
    runtime, nodes = build(transport, n=3)

    async def scenario():
        await runtime.start()
        assert len(transport.ports) == 3
        assert len(set(transport.ports.values())) == 3
        nodes[0].send(envelope(0, 1, 0))
        nodes[2].send(envelope(2, 1, 0))
        nodes[1].send(envelope(1, 0, 0))
        await runtime.wait_until(
            lambda: runtime.network.delivered == 3, timeout=60.0, what="3 deliveries"
        )
        await runtime.shutdown()

    run(scenario())
    assert transport.frames_sent == 3
    assert transport.frames_received == 3
    assert {e.msg_id.sender for e in nodes[1].received} == {0, 2}
    assert len(nodes[0].received) == 1


def test_shutdown_freezes_the_kernel_before_the_transport_stops():
    # TcpTransport.stop() marks itself stopped and then yields to the loop
    # (gathering its cancelled pumps).  A timer due in that window used to
    # fire, send on the stopped transport and fail the shutdown with
    # "tcp transport is not running"; the scheduler now detaches first.
    transport = TcpTransport()
    runtime, nodes = build(transport, delay=FixedDelay(0.0))

    async def scenario():
        await runtime.start()
        nodes[0].send(envelope(0, 1, 0))  # a pump exists, so stop() has one to await
        await runtime.wait_until(lambda: nodes[1].received, what="the first delivery")
        runtime.scheduler.at(
            runtime.now, lambda: nodes[0].send(envelope(0, 1, 1)), label="late send"
        )
        await runtime.shutdown()  # raise_errors=True: any callback error fails here

    run(scenario())
    assert runtime.scheduler.errors == []
    assert len(nodes[1].received) == 1  # the late timer never ran


def test_tcp_disconnect_drops_then_reconnect_delivers():
    transport = TcpTransport()
    runtime, nodes = build(transport, n=2)

    async def scenario():
        await runtime.start()
        port_before = transport.ports[1]

        runtime.crash(1)
        transport.disconnect(1)
        nodes[0].send(envelope(0, 1, 0))
        await runtime.wait_until(
            lambda: runtime.network.dropped == 1, timeout=60.0, what="the drop"
        )

        transport.reconnect(1)
        runtime.recover(1)
        assert transport.ports[1] == port_before  # endpoint identity survives

        nodes[0].send(envelope(0, 1, 1))
        await runtime.wait_until(
            lambda: len(nodes[1].received) == 1, timeout=60.0, what="redelivery"
        )
        await runtime.shutdown()

    run(scenario())
    assert [e.msg_id.send_index for e in nodes[1].received] == [1]


def test_tcp_unreachable_peer_goes_to_spoolers():
    transport = TcpTransport()
    runtime, nodes = build(transport, n=3)
    runtime.network.install_spoolers(1, [0, 2])

    async def scenario():
        await runtime.start()
        runtime.crash(1)
        transport.disconnect(1)
        nodes[0].send(envelope(0, 1, 0))
        await runtime.wait_until(
            lambda: runtime.network.spooled == 1, timeout=60.0, what="the spool"
        )
        await runtime.shutdown()

    run(scenario())
    group = runtime.network.spooler_for(1)
    salvaged = group.drain(runtime.is_alive)
    assert [e.msg_id.send_index for e in salvaged] == [0]
    assert runtime.network.dropped == 0


def test_tcp_batched_drain_coalesces_writes():
    # A queued burst to one destination drains as a handful of writev-style
    # batches, not one syscall per frame — while every frame still arrives.
    transport = TcpTransport(max_batch=64)
    runtime, nodes = build(transport, n=2, delay=FixedDelay(0.0))

    async def scenario():
        await runtime.start()
        for i in range(64):
            nodes[0].send(envelope(0, 1, i))
        await runtime.wait_until(
            lambda: len(nodes[1].received) == 64, timeout=60.0, what="the burst"
        )
        await runtime.shutdown()

    run(scenario())
    assert transport.frames_sent == 64
    assert transport.frames_received == 64
    assert transport.batches_sent < transport.frames_sent
    assert {e.msg_id.send_index for e in nodes[1].received} == set(range(64))


def test_tcp_disconnect_salvages_the_batch_its_pump_holds():
    # Section 6 assumes traffic for a killed peer reaches its spoolers.  The
    # pump may already have dequeued a batch (here: suspended in its connect)
    # when disconnect() cancels it; that batch must be salvaged, not lost.
    transport = TcpTransport()
    runtime, nodes = build(transport, n=3)
    runtime.network.install_spoolers(1, [0, 2])

    async def scenario():
        await runtime.start()
        entered, release = asyncio.Event(), asyncio.Event()
        real_connect = transport._connect

        async def blocked_connect(dst):
            entered.set()
            await release.wait()
            return await real_connect(dst)

        transport._connect = blocked_connect
        nodes[0].send(envelope(0, 1, 0))
        await asyncio.wait_for(entered.wait(), 10)  # batch in hand, not yet written
        runtime.crash(1)
        transport.disconnect(1)
        await runtime.wait_until(
            lambda: runtime.network.spooled == 1, timeout=30.0, what="the salvage"
        )
        await runtime.shutdown()

    run(scenario())
    salvaged = runtime.network.spooler_for(1).drain(runtime.is_alive)
    assert [e.msg_id.send_index for e in salvaged] == [0]
    assert runtime.network.dropped == 0
    assert transport.frames_sent == 0


# A string field whose two bytes are not UTF-8: past the format tag, so the
# reader itself trips (it used to escape as UnicodeDecodeError and kill the
# accept task instead of counting ``links_rejected``).
BAD_UTF8 = wire.dumps_frame(
    normal(0, 1, MessageId(0, 7), label=1, body=NormalBody(payload="xy"))
)[wire.HEADER_SIZE:].replace(b"xy", b"\xff\xfe")


@pytest.mark.parametrize("kind", ["tcp", "shard"])
def test_undecodable_payload_costs_only_its_connection(kind):
    _hostile_payload_costs_only_its_connection(kind, b'{"wire": "v1"}')


def test_malformed_value_in_a_tagged_frame_costs_only_its_connection():
    with pytest.raises(WireError, match="UnicodeDecodeError"):
        wire.loads_frame(BAD_UTF8)
    _hostile_payload_costs_only_its_connection("tcp", BAD_UTF8)


def _hostile_payload_costs_only_its_connection(kind, junk):
    # A well-framed payload that does not decode (a version-skewed or hostile
    # peer) cannot be skipped — the link is closed and counted, nothing
    # escapes into the kernel's error list, and the next connection is served.
    if kind == "tcp":
        transport = TcpTransport()
        port = lambda: transport.ports[1]  # noqa: E731
    else:
        transport = ShardTransport(0, HashRing(1))  # one shard: every pid is local
        port = lambda: transport.port  # noqa: E731
    runtime, nodes = build(transport, n=2, delay=FixedDelay(0.0))
    good = wire.dumps_frame(envelope(0, 1, 7))

    async def scenario():
        await runtime.start()
        reader, writer = await asyncio.open_connection(transport.host, port())
        writer.write(good + struct.pack(">I", len(junk)) + junk + good)
        assert await asyncio.wait_for(reader.read(), 10) == b""  # server hung up
        writer.close()
        assert transport.links_rejected == 1
        assert transport.frames_received == 1  # the frame before the junk, only

        _, writer = await asyncio.open_connection(transport.host, port())
        writer.write(good)
        await runtime.wait_until(
            lambda: len(nodes[1].received) == 2, timeout=30.0, what="both good frames"
        )
        writer.close()
        runtime.check()
        await runtime.shutdown()

    run(scenario())
    assert transport.links_rejected == 1
    assert [e.msg_id.send_index for e in nodes[1].received] == [7, 7]


def test_tcp_rejects_bad_knobs():
    with pytest.raises(TransportError):
        TcpTransport(max_batch=0)
    with pytest.raises(TypeError):
        LoopbackTransport(codec=False)  # loopback always round-trips the codec


def test_tcp_rapid_restart_cycles_reuse_the_endpoint():
    # Ten kill/restart cycles of the same pid, each rebinding the same
    # port immediately.  Without SO_REUSEADDR the rebind intermittently
    # hits EADDRINUSE while the previous socket lingers in TIME_WAIT.
    transport = TcpTransport()
    runtime, nodes = build(transport, n=2, delay=FixedDelay(0.0))

    async def scenario():
        await runtime.start()
        port = transport.ports[1]
        for cycle in range(10):
            runtime.crash(1)
            transport.disconnect(1)
            transport.reconnect(1)
            runtime.recover(1)
            assert transport.ports[1] == port  # endpoint identity survives
            nodes[0].send(envelope(0, 1, cycle))
            await runtime.wait_until(
                lambda want=cycle + 1: len(nodes[1].received) == want,
                timeout=60.0, what=f"delivery after restart {cycle}",
            )
        await runtime.shutdown()

    run(scenario())
    assert [e.msg_id.send_index for e in nodes[1].received] == list(range(10))


def test_tcp_generation_counters_reset_per_restart():
    # Wire counters are per node generation: a restart closes the current
    # generation's row, and the open tail row plus the closed rows always
    # sum to the cumulative totals — nothing accumulates silently across
    # generations.
    transport = TcpTransport(max_batch=8)
    runtime, nodes = build(transport, n=2, delay=FixedDelay(0.0))

    async def scenario():
        await runtime.start()
        for i in range(4):
            nodes[0].send(envelope(0, 1, i))
        await runtime.wait_until(
            lambda: len(nodes[1].received) == 4, timeout=60.0, what="first burst"
        )

        runtime.crash(1)
        transport.disconnect(1)
        transport.reconnect(1)
        runtime.recover(1)

        for i in range(4, 6):
            nodes[0].send(envelope(0, 1, i))
        await runtime.wait_until(
            lambda: len(nodes[1].received) == 6, timeout=60.0, what="second burst"
        )
        await runtime.shutdown()

    run(scenario())
    generations = transport.generation_summary()
    assert [g["generation"] for g in generations] == [0, 1]
    closed, tail = generations
    assert closed["restarted_pid"] == 1
    assert tail["restarted_pid"] is None
    assert closed["frames_sent"] == 4
    assert tail["frames_sent"] == 2
    for key in ("frames_sent", "batches_sent", "bytes_sent", "frames_received"):
        assert sum(g[key] for g in generations) == getattr(
            transport, key if key != "frames_received" else "frames_received"
        )
    assert closed["bytes_sent"] > 0 and tail["bytes_sent"] > 0


def test_tcp_counters_reset_on_transport_restart():
    # Stopping and starting the whole transport is a fresh deployment:
    # cumulative counters and the generation ledger restart from zero.
    transport = TcpTransport()
    runtime, nodes = build(transport, n=2, delay=FixedDelay(0.0))

    async def scenario():
        await runtime.start()
        nodes[0].send(envelope(0, 1, 0))
        await runtime.wait_until(
            lambda: len(nodes[1].received) == 1, timeout=60.0, what="delivery"
        )
        runtime.crash(1)
        transport.disconnect(1)
        transport.reconnect(1)
        runtime.recover(1)
        assert transport.generation == 1
        await transport.stop()
        await transport.start()
        await transport.stop()

    run(scenario())
    assert transport.frames_sent == 0
    assert transport.bytes_sent == 0
    assert transport.generation == 0
    assert transport.generation_summary()[-1]["frames_sent"] == 0
