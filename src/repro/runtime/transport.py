"""Transports that physically carry envelopes for the live runtime.

The :class:`~repro.runtime.network.RuntimeNetwork` stamps and counts an
outgoing envelope exactly as the simulated network does, then hands it to a
:class:`Transport`:

* :class:`LoopbackTransport` — in-process: the envelope (round-tripped
  through the full wire codec) is scheduled for delivery
  on the runtime's real-timer scheduler after a delay sampled from the
  network's :class:`~repro.net.delay.DelayModel` and ordered by its
  :class:`~repro.net.channel.Channel` policy — the *same* objects the
  simulator uses, so the non-FIFO contract carries over verbatim.  Fast,
  deterministic-ish, and precise about in-flight accounting (supports
  ``AsyncRuntime.join``).
* :class:`LinkTransport` — batched length-prefixed links over real TCP
  sockets, implemented once: the per-destination outbound pump (queue →
  coalesce up to ``max_batch`` → one :func:`~repro.runtime.wire.encode_batch`
  buffer → one write/drain → reconnect once → whole-batch salvage) and the
  inbound read loop (64 KiB reads → :class:`~repro.runtime.wire.FrameDecoder`
  → :func:`~repro.runtime.wire.loads_frame`).  There is one wire format and
  no handshake: a connection carries frames from its first byte.
  :class:`TcpTransport` (one server per node, links keyed by pid) and
  :class:`~repro.runtime.shard.ShardTransport` (one server per worker,
  links keyed by shard) supply only the addressing hooks.  Batching cannot
  introduce orderings the model forbids: frames stay whole and in queue
  order inside a batch, and arrival order was never delivery order anyway —
  on arrival the receiving side applies the delay-model/channel pipeline
  *per message* before delivery, so protocol-level delays keep their
  configured magnitudes and messages genuinely reorder (TCP is FIFO per
  connection; the sampled post-arrival delay restores the paper's non-FIFO
  channel model).

Endpoint control — ``connect``/``disconnect``/``reconnect(pid)`` — is
synchronous on every transport: :func:`listening_socket` binds *and listens*,
so a TCP endpoint's port is recorded and connectable the moment the call
returns, and the asyncio accept loop is put on it by a task (connections made
in between wait in the backlog).  A cluster verb can therefore run inside a
kernel timer.

All preserve the delivery-time policy enforcement of
:meth:`repro.net.network.Network.deliver_local`: partition filtering, crash
spooling/dropping, and the delivered/dropped/spooled counters.

Unreachable peers (killed TCP endpoints) are routed through
:meth:`~repro.net.network.Network.spool_or_drop`: if the destination has
live spooler hosts the message is captured for redelivery at recovery —
the paper's Section 6 salvage path — otherwise it is counted and traced as
a drop, which the resilient protocol tolerates by design.
"""

from __future__ import annotations

import asyncio
import functools
import socket
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import TransportError, WireError
from repro.net.message import Envelope
from repro.priorities import PRIORITY_NORMAL
from repro.runtime import wire

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.loop import AsyncRuntime
    from repro.types import ProcessId


class Transport:
    """Base class: lifecycle, runtime binding, in-flight accounting."""

    def __init__(self) -> None:
        self._runtime: Optional["AsyncRuntime"] = None
        self.in_flight = 0
        self.started = False

    def bind(self, runtime: "AsyncRuntime") -> None:
        if self._runtime is not None:
            raise TransportError("transport already bound to a runtime")
        self._runtime = runtime

    @property
    def runtime(self) -> "AsyncRuntime":
        if self._runtime is None:
            raise TransportError("transport not bound to a runtime")
        return self._runtime

    async def start(self) -> None:
        """Open endpoints; called by ``AsyncRuntime.start`` inside the loop."""
        if self.started:
            raise TransportError("transport already started")
        self.started = True

    async def stop(self) -> None:
        """Tear down endpoints; further sends raise."""
        self.started = False

    def send(self, envelope: Envelope) -> None:
        """Carry ``envelope`` to its destination (called from node callbacks)."""
        raise NotImplementedError

    # Endpoint control: no-ops for transports without per-pid endpoints
    # (loopback, the shard link).
    def disconnect(self, pid: "ProcessId") -> None:
        """Make ``pid``'s endpoint unreachable (cluster kill or leave)."""

    def reconnect(self, pid: "ProcessId") -> None:
        """Restore ``pid``'s endpoint after a :meth:`disconnect` (restart)."""

    def connect(self, pid: "ProcessId") -> None:
        """Provision an endpoint for a newly joined node (membership join)."""

    def _deliver_after_delay(self, envelope: Envelope) -> None:
        """Schedule policy-checked delivery after the modelled network delay.

        Shared tail of both transports: sample the transit delay from the
        network's delay model, order it through the channel policy, then
        hand the envelope to ``Network.deliver_local`` at that kernel time.
        """
        runtime = self.runtime
        net = runtime.network
        delay = net.delay_model.sample(runtime.rng, envelope.src, envelope.dst)
        deliver_at = net.channel.delivery_time(
            envelope.src, envelope.dst, runtime.now, delay
        )
        self.in_flight += 1

        def arrive() -> None:
            self.in_flight -= 1
            net.deliver_local(envelope)

        runtime.scheduler.at(
            deliver_at,
            arrive,
            priority=getattr(envelope.body, "priority", PRIORITY_NORMAL),
            label=f"deliver P{envelope.src}->P{envelope.dst}",
        )


def listening_socket(host: str, port: int) -> socket.socket:
    """A bound, *listening* TCP socket with ``SO_REUSEADDR`` set.

    Every server endpoint in the runtime (per-pid TCP servers, shard link
    servers) opens through this helper.  The socket listens before it is
    returned, so its port is known and connectable at once: a peer that
    connects before the asyncio accept loop is up waits in the backlog.
    ``SO_REUSEADDR`` matters for the
    kill/restart path: a restarted endpoint reopens its *original* port,
    and without the option the previous generation's connections lingering
    in ``TIME_WAIT`` make the bind fail intermittently with ``EADDRINUSE``
    — exactly the rapid-cycle shape sharded load produces.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen()
        sock.setblocking(False)
    except OSError:
        sock.close()
        raise
    return sock


class LoopbackTransport(Transport):
    """In-process transport: real timers, no sockets.

    Every envelope is round-tripped through the full wire codec before
    delivery, so loopback tests also prove the traffic is wire-serializable.
    """

    def send(self, envelope: Envelope) -> None:
        if not self.started:
            raise TransportError("loopback transport is not running")
        self._deliver_after_delay(wire.roundtrip(envelope))


def _close(writer: Optional[asyncio.StreamWriter]) -> None:
    """Close ``writer`` if there is one; always returns None."""
    if writer is not None:
        try:
            writer.close()
        except Exception:  # noqa: BLE001 - already-broken socket
            pass
    return None


class LinkTransport(Transport):
    """Batched length-prefixed links over TCP: the one pump, the one reader.

    A *link* is a one-directional TCP connection to the server that owns a
    destination ``key`` (a pid for :class:`TcpTransport`, a shard for
    :class:`~repro.runtime.shard.ShardTransport`).  Subclasses decide what a
    key is, where it listens (:meth:`_address`), whether it is currently
    unreachable (:meth:`_link_down`) and what to do with a decoded inbound
    envelope (:meth:`_inbound`); everything between the queue and the
    socket lives here, once.

    Outbound, each key has a queue fed by :meth:`_enqueue` (so node
    callbacks never block on a socket) and a pump task that *coalesces*
    everything already queued (up to ``max_batch``) into one
    :func:`~repro.runtime.wire.encode_batch` buffer, written and drained
    once.  Frames stay whole and in queue order, and the receiver samples a
    per-message delivery delay, so batching changes syscall count — not the
    ordering the non-FIFO channel model already permits.  A write that
    fails reconnects once; a batch that still cannot be written — or that
    the pump holds when its link goes down and the pump is cancelled — is
    handed whole to :meth:`~repro.net.network.Network.spool_or_drop`, the
    paper's Section 6 salvage path.

    Inbound, :meth:`_receive` turns 64 KiB socket reads into frames with a
    :class:`~repro.runtime.wire.FrameDecoder` and decodes each payload
    straight from a ``memoryview`` slice.  A peer that dies mid-frame or
    sends bytes that do not decode costs exactly its connection: the link
    is closed, ``links_rejected`` is bumped, and a fresh connection is
    served normally.
    """

    def __init__(self, host: str = "127.0.0.1", max_batch: int = 64) -> None:
        super().__init__()
        if max_batch < 1:
            raise TransportError(f"max_batch must be >= 1, got {max_batch}")
        self.host = host
        self.max_batch = max_batch
        self._queues: Dict[Any, "asyncio.Queue[Envelope]"] = {}
        self._pumps: Dict[Any, "asyncio.Task[None]"] = {}
        self.frames_sent = 0
        self.frames_received = 0
        self.batches_sent = 0
        self.bytes_sent = 0
        self.links_rejected = 0

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    async def _address(self, key: Any) -> Tuple[str, int]:
        """Where the server owning ``key`` listens (may wait until known)."""
        raise NotImplementedError

    def _link_down(self, key: Any) -> bool:
        """True while ``key`` is known unreachable: salvage, do not write."""
        return False

    def _inbound(self, envelope: Envelope) -> None:
        """A decoded envelope arrived on one of this transport's servers.

        The socket hop is real but near-instant on localhost; the
        delay-model pipeline restores protocol-scale transit times and the
        non-FIFO ordering contract.
        """
        self._deliver_after_delay(envelope)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def stop(self) -> None:
        await super().stop()
        pumps = list(self._pumps.values())
        self._pumps.clear()
        self._queues.clear()
        for task in pumps:
            task.cancel()
        await asyncio.gather(*pumps, return_exceptions=True)

    # ------------------------------------------------------------------
    # Outbound
    # ------------------------------------------------------------------
    def _enqueue(self, key: Any, envelope: Envelope) -> None:
        """Queue ``envelope`` for ``key``'s link, starting its pump if idle."""
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = asyncio.Queue()
        queue.put_nowait(envelope)
        task = self._pumps.get(key)
        if task is None or task.done():
            self._pumps[key] = asyncio.get_running_loop().create_task(
                self._pump(key, queue)
            )

    def _cut_link(self, key: Any) -> None:
        """Cancel ``key``'s pump; its queue keeps anything not yet taken."""
        task = self._pumps.pop(key, None)
        if task is not None:
            task.cancel()

    def _salvage(self, batch: List[Envelope]) -> None:
        spool_or_drop = self.runtime.network.spool_or_drop
        for envelope in batch:
            spool_or_drop(envelope, "unreachable")

    async def _pump(self, key: Any, queue: "asyncio.Queue[Envelope]") -> None:
        """Outbound pump for one link: batch, connect, write, salvage."""
        writer: Optional[asyncio.StreamWriter] = None
        batch: List[Envelope] = []
        try:
            while True:
                batch = [await queue.get()]
                while len(batch) < self.max_batch and not queue.empty():
                    batch.append(queue.get_nowait())
                if not self._link_down(key):
                    buffer = wire.encode_batch(batch)
                    for _attempt in (0, 1):  # a stale connection earns one reconnect
                        try:
                            if writer is None:
                                writer = await self._connect(key)
                            writer.write(buffer)
                            await writer.drain()
                        except OSError:  # ConnectionError included
                            writer = _close(writer)
                            continue
                        self.frames_sent += len(batch)
                        self.batches_sent += 1
                        self.bytes_sent += len(buffer)
                        batch = []
                        break
                if batch:  # could not be written
                    self._salvage(batch)
                    batch = []
        except asyncio.CancelledError:
            # The link was cut with a dequeued batch in hand (suspended in
            # the connect or the drain): nobody else holds those envelopes.
            if self._link_down(key):
                self._salvage(batch)
            raise
        except Exception as exc:  # noqa: BLE001 - surface via runtime.check()
            self.runtime.scheduler._note_error(f"link pump ->{key}", exc)
        finally:
            _close(writer)

    async def _connect(self, key: Any) -> asyncio.StreamWriter:
        host, port = await self._address(key)
        _reader, writer = await asyncio.open_connection(host, port)
        return writer

    # ------------------------------------------------------------------
    # Inbound
    # ------------------------------------------------------------------
    @staticmethod
    def _close_accepted(accepted: Iterable[asyncio.StreamWriter]) -> None:
        """Hang up on every connection a closing server had accepted."""
        for writer in list(accepted):
            _close(writer)

    async def _receive(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        accepted: Set[asyncio.StreamWriter],
    ) -> None:
        """Serve one accepted connection until EOF, error or teardown.

        ``accepted`` is the owning server's set of live connections, so the
        subclass can close them when that server goes away.
        """
        accepted.add(writer)
        decoder = wire.FrameDecoder()
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    decoder.eof()
                    break
                decoder.feed(chunk)
                # A coalesced batch arrives as one read; each frame payload is
                # decoded straight from a memoryview slice of the receive
                # buffer — no per-frame bytes copy on the hot path.
                for view in decoder.frames():
                    envelope = wire.loads_frame(view)
                    self.frames_received += 1
                    self._inbound(envelope)
        except WireError:
            # Died mid-frame, oversized header or undecodable payload: the
            # stream cannot be resynchronised, so the link is dropped and
            # counted; the peer's next connection starts clean.
            self.links_rejected += 1
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            accepted.discard(writer)
            _close(writer)


class TcpTransport(LinkTransport):
    """One :class:`LinkTransport` server per node on localhost; key = pid.

    Every pid gets an ``asyncio`` server on ``(host, ephemeral)``; the
    chosen port is remembered so a killed node's endpoint reopens on the
    *same* address at restart (peers reconnect transparently).

    ``disconnect``/``reconnect`` model a node dropping off the network: the
    server socket and its accepted connections close, the outbound link to
    it is cut, and frames that cannot reach the peer go through the
    network's spool-or-drop salvage path.
    """

    def __init__(self, host: str = "127.0.0.1", max_batch: int = 64) -> None:
        super().__init__(host, max_batch)
        # pid -> its accept loop (an asyncio server), or the bare listening
        # socket until the task in ``_accepting`` has put the loop on it.
        self._servers: Dict["ProcessId", Any] = {}
        self._accepting: Dict["ProcessId", "asyncio.Task[None]"] = {}
        self.ports: Dict["ProcessId", int] = {}
        self._down: Set["ProcessId"] = set()
        self._accepted: Dict["ProcessId", Set[asyncio.StreamWriter]] = {}
        # A "generation" spans from one endpoint restart to the next; the
        # cumulative counters are also snapshotted per generation so a
        # cluster summary can attribute traffic to node lifetimes instead of
        # silently accumulating across them.
        self.generation = 0
        self._generation_closed: List[Dict[str, Any]] = []
        self._generation_base = (0, 0, 0, 0)  # frames, batches, bytes, received

    async def _address(self, pid: "ProcessId") -> Tuple[str, int]:
        return self.host, self.ports[pid]

    def _link_down(self, pid: "ProcessId") -> bool:
        return pid in self._down

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        await super().start()
        # A transport (re)start is a fresh deployment: zero the traffic
        # counters rather than letting a previous run's totals leak into
        # this one's summary.
        self.frames_sent = 0
        self.frames_received = 0
        self.batches_sent = 0
        self.bytes_sent = 0
        self.links_rejected = 0
        self.generation = 0
        self._generation_closed = []
        self._generation_base = (0, 0, 0, 0)
        for pid in self.runtime.process_ids:
            self._open_server(pid)

    def _open_server(self, pid: "ProcessId") -> None:
        """Open ``pid``'s endpoint, synchronously.

        When this returns the port is bound, listening and recorded; the
        asyncio accept loop goes up as a task, and a peer that connects
        before it is up waits in the socket's backlog.
        """
        sock = listening_socket(self.host, self.ports.get(pid, 0))
        self.ports[pid] = sock.getsockname()[1]
        self._servers[pid] = sock
        self._accepting[pid] = asyncio.get_running_loop().create_task(
            self._accept(pid, sock)
        )

    async def _accept(self, pid: "ProcessId", sock: socket.socket) -> None:
        """Put the accept loop on ``sock`` — unless the endpoint was closed
        (or closed and reopened) while this task waited for its turn."""
        accepted = self._accepted.setdefault(pid, set())
        try:
            if self._servers.get(pid) is sock:
                server = await asyncio.start_server(
                    functools.partial(self._receive, accepted=accepted),
                    sock=sock, start_serving=False,
                )
                if self._servers.get(pid) is sock:
                    self._servers[pid] = server
                    await server.start_serving()
        except Exception as exc:  # noqa: BLE001 - surface via runtime.check()
            self.runtime.scheduler._note_error(f"accept loop P{pid}", exc)

    async def stop(self) -> None:
        await super().stop()
        for pid in list(self._servers):
            self._close_server(pid)

    def _close_server(self, pid: "ProcessId") -> None:
        server = self._servers.pop(pid, None)
        if server is not None:
            server.close()  # the accept loop, or the socket still waiting for one
        self._close_accepted(self._accepted.get(pid, ()))

    # ------------------------------------------------------------------
    # Kill / restart
    # ------------------------------------------------------------------
    def disconnect(self, pid: "ProcessId") -> None:
        """Close ``pid``'s server and connections; its port is remembered."""
        self._down.add(pid)
        self._close_server(pid)
        # Sever the outbound link *to* the dead peer so queued frames fail
        # fast instead of into a half-open socket.
        self._cut_link(pid)

    def reconnect(self, pid: "ProcessId") -> None:
        """Reopen ``pid``'s server on its original port."""
        if pid not in self._down:
            raise TransportError(f"P{pid} is not disconnected")
        self._down.discard(pid)
        self._close_generation(pid)
        self._open_server(pid)

    def connect(self, pid: "ProcessId") -> None:
        """Open a listening server for a freshly joined node."""
        if pid in self._servers:
            raise TransportError(f"P{pid} already has an endpoint")
        self._open_server(pid)

    # ------------------------------------------------------------------
    # Per-generation counters
    # ------------------------------------------------------------------
    def _counters_since_base(self) -> Dict[str, int]:
        frames, batches, size, received = self._generation_base
        return {
            "frames_sent": self.frames_sent - frames,
            "batches_sent": self.batches_sent - batches,
            "bytes_sent": self.bytes_sent - size,
            "frames_received": self.frames_received - received,
        }

    def _close_generation(self, pid: "ProcessId") -> None:
        """Snapshot the counters accumulated since the last endpoint restart."""
        self._generation_closed.append(
            {"generation": self.generation, "restarted_pid": pid,
             **self._counters_since_base()}
        )
        self._generation_base = (
            self.frames_sent, self.batches_sent, self.bytes_sent,
            self.frames_received,
        )
        self.generation += 1

    def generation_summary(self) -> List[Dict[str, Any]]:
        """Traffic counters split at endpoint restarts.

        One row per closed generation (``restarted_pid`` names the restart
        that ended it) plus the still-open one (``restarted_pid`` None).
        Rows sum to the cumulative ``frames/batches/bytes`` counters, so
        nothing accumulates invisibly across node generations.
        """
        open_row = {"generation": self.generation, "restarted_pid": None,
                    **self._counters_since_base()}
        return [*self._generation_closed, open_row]

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def send(self, envelope: Envelope) -> None:
        if not self.started:
            raise TransportError("tcp transport is not running")
        if envelope.dst in self._down:
            self.runtime.network.spool_or_drop(envelope, "unreachable")
            return
        self._enqueue(envelope.dst, envelope)
