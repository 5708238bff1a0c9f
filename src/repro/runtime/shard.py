"""Sharded multi-process cluster runtime: many cores, one protocol.

One :class:`~repro.runtime.loop.AsyncRuntime` drives every engine on a
single core, so adding processes adds contention, not throughput.  The paper's protocol is
decentralized — concurrent checkpoint/recovery instances across autonomous
processes — and the sans-IO engine makes hosts cheap, so the fix is to run
*many kernels*: partition the protocol processes across worker OS processes
(one ``AsyncRuntime`` per core) and let the byte-identical engine code run
everywhere.

Layout::

    ShardedCluster (front door, parent process)
      ├─ worker 0: ShardRuntime ── ShardTransport ──┐
      ├─ worker 1: ShardRuntime ── ShardTransport ──┼── one batched TCP
      └─ worker k: ShardRuntime ── ShardTransport ──┘   link per shard pair

* **a worker is a** :class:`~repro.runtime.cluster.Cluster` **over its
  slice** (:class:`ShardWorker`): storage directories, processes, spooler
  groups, the four control verbs, observation and shutdown are the base
  class's — and so is the option list, which :class:`WorkerSpec` carries
  as ``Cluster`` keyword arguments; the worker adds ring ownership and a
  kernel that answers for the whole cluster.
* **one population per kernel**: :class:`ShardRuntime`'s
  :class:`~repro.membership.MembershipPlane` is seeded with every cluster
  pid; ``process_ids`` / ``is_member`` / remote ``is_alive`` are read off
  it (plus a notice-driven down set), and the network facade and the
  transport ask the kernel — nothing else holds a pid list.
* **pid → shard assignment** is consistent hashing (:class:`HashRing`):
  every participant — parent and workers — derives the same map from
  ``(shards, replicas)`` alone, and future elastic membership remaps only
  ~1/shards of the pids per shard count change.
* **intra-shard** delivery uses the loopback fast path (the wire-codec
  round-trip plus the delay-model/channel pipeline — exactly
  :class:`~repro.runtime.transport.LoopbackTransport` semantics).
* **inter-shard** traffic rides one TCP connection per shard pair — the
  same batched-link implementation as :class:`~repro.runtime.transport.
  TcpTransport` (:class:`~repro.runtime.transport.LinkTransport`): frames
  stay whole and in queue order inside a batch, and the *receiving* shard
  samples the per-message delivery delay, so the non-FIFO channel contract
  is preserved across the process boundary.
* **traces** stream to per-shard :class:`~repro.runtime.cluster.
  PidRouterSink` JSONL shards; :meth:`ShardedCluster.merged_index` stitches
  them with :meth:`repro.analysis.index.TraceIndex.from_jsonl_files`, so
  the whole analysis battery (C1, recovery line, 2PC invariant) runs
  unchanged on multi-process runs.

Failure and membership semantics: ``kill``/``restart``/``join``/``leave(pid,
at=None)`` on :class:`ShardedCluster` have the signatures ``Cluster`` gives
them, and every one — immediate or scheduled — travels as one ``churn`` batch
that each worker receives whole and splits by ring ownership
(:meth:`ShardWorker.apply_churn`).
The owning shard runs the inherited verb — a kill leaves the shard's link
server up, so in-flight frames for the dead pid still reach its kernel and
take the Section 6 spool-or-drop salvage path there (spooler hosts are
always shard-local, because liveness checks and recovery drains are answered
by the owning kernel).  Every other shard applies the remote notice: a
crash/recovery flips its down set and is reported to its own failure
detector, which notifies the nodes that shard hosts after the same detection
latency; a join/leave moves its plane and tells its hosted nodes.  Spool
decision observation stays shard-local, which suffices because a decision
addressed to a down process arrives at its shard and is spooled there as an
ordinary envelope.
"""

from __future__ import annotations

import asyncio
import bisect
import glob
import hashlib
import os
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import get_context
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core import CheckpointProcess, ProtocolConfig
from repro.errors import SimulationError, TransportError
from repro.net.delay import FixedDelay
from repro.net.message import Envelope
from repro.runtime import wire
from repro.runtime.cluster import Cluster
from repro.runtime.loop import AsyncRuntime
from repro.runtime.transport import LinkTransport, listening_socket
from repro.types import ProcessId, SimTime
from repro.workloads import RandomPeerWorkload

if TYPE_CHECKING:  # pragma: no cover
    from multiprocessing.connection import Connection
    from multiprocessing.context import BaseContext

    from repro.analysis.index import TraceIndex


#: Real seconds between two rounds of worker polls in ``wait_until``.
_POLL_EVERY = 0.05


def visible_cpus() -> int:
    """CPUs the OS scheduler will actually grant this process."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# pid -> shard assignment
# ----------------------------------------------------------------------

class HashRing:
    """Consistent-hash assignment of protocol pids to shards.

    Each shard projects ``replicas`` virtual points onto a 64-bit ring and
    a pid lands on the first point clockwise of its own hash.  Two
    properties matter here:

    * **agreement without coordination** — the map is a pure function of
      ``(shards, replicas)``, so the parent and every worker compute the
      identical assignment from the spec alone; no table is shipped.
    * **stability** — changing the shard count remaps only the pids whose
      arcs the added/removed points claim (~1/shards of them), which is
      what makes the assignment future-proof for elastic membership, and
      the reason this is a ring rather than ``pid % shards``.
    """

    def __init__(self, shards: int, replicas: int = 64) -> None:
        if shards < 1:
            raise SimulationError(f"need at least 1 shard, got {shards}")
        if replicas < 1:
            raise SimulationError(f"need at least 1 replica point, got {replicas}")
        self.shards = shards
        self.replicas = replicas
        points: List[Tuple[int, int]] = []
        for shard in range(shards):
            for replica in range(replicas):
                points.append((self._hash(f"shard-{shard}/{replica}"), shard))
        points.sort()
        self._hashes = [point for point, _ in points]
        self._owners = [shard for _, shard in points]

    @staticmethod
    def _hash(key: str) -> int:
        digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
        return int.from_bytes(digest, "big")

    def shard_of(self, pid: ProcessId) -> int:
        """The shard hosting ``pid`` (clockwise successor on the ring)."""
        position = bisect.bisect_right(self._hashes, self._hash(f"pid-{pid}"))
        if position == len(self._hashes):
            position = 0  # wrap past the highest point
        return self._owners[position]

    def assignment(self, pids: List[ProcessId]) -> Dict[int, List[ProcessId]]:
        """``shard -> sorted local pids`` for the given population."""
        shards: Dict[int, List[ProcessId]] = {shard: [] for shard in range(self.shards)}
        for pid in sorted(pids):
            shards[self.shard_of(pid)].append(pid)
        return shards

    def grown(self, added_shards: int = 1) -> "HashRing":
        """The ring after adding ``added_shards`` shards (elastic grow).

        Existing shards keep their virtual points, so only the arcs the new
        shards' points claim move — ~``added/(shards+added)`` of the pids.
        """
        if added_shards < 1:
            raise SimulationError(f"must add at least 1 shard, got {added_shards}")
        return HashRing(self.shards + added_shards, replicas=self.replicas)

    def remap_fraction(self, other: "HashRing", pids: List[ProcessId]) -> float:
        """Fraction of ``pids`` whose owning shard differs under ``other``."""
        if not pids:
            return 0.0
        moved = sum(1 for pid in pids if self.shard_of(pid) != other.shard_of(pid))
        return moved / len(pids)


# ----------------------------------------------------------------------
# Worker-side kernel and transport
# ----------------------------------------------------------------------

class ShardRuntime(AsyncRuntime):
    """An :class:`AsyncRuntime` that answers for the *whole* cluster.

    Engine code asks its kernel population questions — ``process_ids`` (who
    exists), ``is_alive`` (who is up), ``is_member`` (who may be sent to) —
    and the answers feed protocol-visible state: the ``Start`` event's peer
    list, broadcast fan-out (recovery inquiries!), and the failure-detector
    views stamped on every delivery.  A shard kernel *hosts* only its slice
    but must *answer* for the whole cluster, or a recovering process would
    inquire only shard-local peers and stall forever.

    The population is the kernel's own :class:`~repro.membership.
    MembershipPlane`, seeded with every cluster pid: a hosted join or leave
    moves it through ``join_node``/``leave_node`` like on any kernel, one on
    another shard through :meth:`admit_pid`/:meth:`retire_pid`.  Liveness of
    remote pids is the notice-driven ``_remote_down`` set fed by the
    parent's control plane; hosted pids use the node's true state.
    """

    def __init__(self, all_pids: List[ProcessId], **kwargs: Any) -> None:
        super().__init__(**kwargs)
        for pid in all_pids:
            self.membership.seed(pid)
        self._remote_down: set = set()

    @property
    def process_ids(self) -> List[ProcessId]:
        view = self.membership.view
        # A hosted joiner is a peer from its own on_start on, as on any kernel.
        return sorted({*view.pids, *view.joining})

    def is_member(self, pid: ProcessId) -> bool:
        return self.membership.is_member(pid)

    def is_alive(self, pid: ProcessId) -> bool:
        node = self.nodes.get(pid)
        if node is not None:
            return not node.crashed
        return self.membership.is_member(pid) and pid not in self._remote_down

    def set_remote_alive(self, pid: ProcessId, up: bool) -> None:
        """Record a control-plane report about a pid hosted elsewhere."""
        if up:
            self._remote_down.discard(pid)
        else:
            self._remote_down.add(pid)
        self.liveness_changed()

    def admit_pid(self, pid: ProcessId) -> None:
        """A pid joined on another shard: extend the plane, tell residents."""
        self.membership.begin_join(pid)
        self.membership.complete_join(pid)
        self.liveness_changed()
        for peer in self.operational_nodes():
            peer.on_join_peer(pid)

    def retire_pid(self, pid: ProcessId, successor: Optional[ProcessId] = None) -> None:
        """A pid departed on another shard: shrink the plane, tell residents."""
        self._remote_down.discard(pid)
        self.membership.begin_leave(pid)
        self.membership.complete_leave(pid)
        self.liveness_changed()
        for peer in self.operational_nodes():
            peer.on_leave_peer(pid, successor)


class ShardTransport(LinkTransport):
    """The data plane of one shard: loopback locally, batched links across.

    Each worker opens exactly one TCP server (its *shard endpoint*) via the
    ``SO_REUSEADDR`` listener helper.  Outbound envelopes are routed by the
    hash ring:

    * destination on this shard — the envelope takes the loopback fast
      path: wire-codec round-trip, then the delay-model/channel delivery
      pipeline on the local kernel;
    * destination remote — the envelope rides the
      :class:`~repro.runtime.transport.LinkTransport` link keyed by the
      destination *shard* (one connection per peer shard, opened lazily
      once the parent has broadcast the address map).

    Everything between the queue and the socket — batching, retry, salvage
    of frames that cannot reach a peer shard, the inbound read loop — is the
    base class's; this class adds routing and the misroute re-forward.
    """

    def __init__(self, shard: int, ring: HashRing, host: str = "127.0.0.1") -> None:
        super().__init__(host)
        self.shard = shard
        self.ring = ring
        self.port: Optional[int] = None
        self.peer_addrs: Dict[int, Tuple[str, int]] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._accepted: Set[asyncio.StreamWriter] = set()
        self._peers_ready: Optional[asyncio.Event] = None
        self.intra_delivered = 0
        self.misrouted = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def listen(self) -> int:
        """Open this shard's link server; returns the bound port.

        Called *before* the runtime starts so the parent can broadcast the
        full shard address map while every kernel is still quiet.
        """
        if self._server is not None:
            raise TransportError(f"shard {self.shard} is already listening")
        self._peers_ready = asyncio.Event()
        self._server = await asyncio.start_server(
            partial(self._receive, accepted=self._accepted),
            sock=listening_socket(self.host, 0),
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    def set_peers(self, addrs: Dict[int, Tuple[str, int]]) -> None:
        """Install the shard → (host, port) map; unblocks the link pumps."""
        self.peer_addrs = dict(addrs)
        if self._peers_ready is None:
            raise TransportError("set_peers before listen()")
        self._peers_ready.set()

    async def start(self) -> None:
        await super().start()
        if self._server is None:
            await self.listen()

    async def stop(self) -> None:
        await super().stop()
        if self._server is not None:
            self._server.close()
            self._server = None
        self._close_accepted(self._accepted)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _address(self, shard: int) -> Tuple[str, int]:
        if self._peers_ready is None:
            raise TransportError("shard link used before listen()")
        await self._peers_ready.wait()
        return self.peer_addrs[shard]

    def send(self, envelope: Envelope) -> None:
        if not self.started:
            raise TransportError("shard transport is not running")
        dst_shard = self.ring.shard_of(envelope.dst)
        if dst_shard == self.shard:
            # Loopback fast path: same semantics as LoopbackTransport.
            self.intra_delivered += 1
            self._deliver_after_delay(wire.roundtrip(envelope))
        else:
            self._enqueue(dst_shard, envelope)

    def _inbound(self, envelope: Envelope) -> None:
        if envelope.dst in self.runtime.nodes:
            self._deliver_after_delay(envelope)
            return
        # Every sender routes by the same fixed ring, so the destination is
        # ours but no longer hosted here (it departed): count it and hand it
        # to the spool-or-drop policy.
        self.misrouted += 1
        self.runtime.network.spool_or_drop(envelope, "misrouted")


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------

@dataclass
class WorkerSpec:
    """Everything a worker needs to build its slice of the cluster.

    ``cluster`` holds the :class:`~repro.runtime.cluster.Cluster` keyword
    arguments as the parent received them (``n``, ``seed``, ``config``,
    ``time_scale``, ...; ``root`` is the shard's own directory) — the
    options are listed once, on ``Cluster``.  Picklable by construction
    (spawn-safe).  The pid→shard map is *not* shipped — every worker
    re-derives it from ``shards`` via the hash ring, which is the agreement
    property the ring buys us.
    """

    shard: int
    shards: int
    cluster: Dict[str, Any]
    workload: Optional[Dict[str, Any]] = None
    app: Optional[Dict[str, Any]] = None
    host: str = "127.0.0.1"


class ShardWorker(Cluster):
    """One worker's slice: a :class:`Cluster` over the pids its shard owns.

    Storage and process provisioning, spooler groups, the four control
    verbs, the observation methods and the shutdown sequence are the base
    class's; this class supplies the two hooks (a kernel that answers for
    the whole cluster, ownership by hash ring) and the half of every churn
    op that happens on *another* shard.
    """

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.ring = HashRing(spec.shards)
        process_cls: Any = CheckpointProcess
        if spec.app is not None:
            # Job-hosting nodes: same protocol process, AppHost application.
            from repro.app.state import AppProcess

            process_cls = AppProcess
        super().__init__(
            transport=ShardTransport(spec.shard, self.ring, host=spec.host),
            process_cls=process_cls,
            **spec.cluster,
        )
        peers = self.runtime.process_ids
        if spec.workload is not None:
            RandomPeerWorkload(**spec.workload).install(
                self.runtime, self.procs, peers=peers
            )
        self.app_traffic: Optional[Any] = None
        if spec.app is not None:
            # Every worker plans the identical global arrival schedule from
            # its identically-seeded RNG and submits only its local slice.
            from repro.app.traffic import JobTraffic

            self.app_traffic = JobTraffic(**spec.app)
            self.app_traffic.install(self.runtime, self.procs, peers=peers)

    def _kernel(self, n: int, **kernel_args: Any) -> ShardRuntime:
        return ShardRuntime(list(range(n)), **kernel_args)

    def _owns(self, pid: ProcessId) -> bool:
        return self.ring.shard_of(pid) == self.spec.shard

    # ------------------------------------------------------------------
    # Churn: hosted transitions and cross-shard notices
    # ------------------------------------------------------------------
    def notice_remote(self, pid: ProcessId, up: bool) -> None:
        """Apply a control-plane report about a pid hosted on another shard.

        Mirrors what the owning kernel does locally: flip the liveness
        view, then let this shard's detector fan the notice out to its
        residents after the detection latency.
        """
        self.runtime.set_remote_alive(pid, up)
        if self.detector is not None:
            if up:
                self.detector.report_recovery(pid)
            else:
                self.detector.report_crash(pid)

    def apply_churn(self, ops: List[Dict[str, Any]]) -> int:
        """Apply one batched churn command.

        ``ops`` is the *full* cluster-wide batch — every worker receives the
        identical list in one pipe message and splits it locally: an op
        whose pid this shard owns is the inherited verb of that name, any
        other the remote notice — either way now, or at kernel time
        ``op["at"]`` when given.  Returns how many ops were applied locally.
        """
        runtime = self.runtime
        local_applied = 0
        for op in ops:
            kind, pid, at = op["kind"], op["pid"], op.get("at")
            if kind not in ("kill", "restart", "join", "leave"):
                raise SimulationError(f"unknown churn op kind {kind!r}")
            args = (op.get("successor"),) if kind == "leave" else ()
            if self._owns(pid):
                getattr(self, kind)(pid, *args, at=at)
                local_applied += 1
                continue
            if kind == "join":
                notice = partial(runtime.admit_pid, pid)
            elif kind == "leave":
                notice = partial(runtime.retire_pid, pid, *args)
            else:
                notice = partial(self.notice_remote, pid, kind == "restart")
            self._now_or_at(at, kind, pid, notice)
        return local_applied

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def poll(self) -> Dict[str, Any]:
        payload = {
            "now": self.runtime.now,
            "committed": self.committed_counts(),
            "alive": {pid: self.runtime.is_alive(pid) for pid in self.procs},
            "open_instances": self.open_instances(),
            "timer_errors": len(self.runtime.scheduler.errors),
        }
        if self.app_traffic is not None:
            rolled = self.app_traffic.driver.metrics()
            payload["jobs"] = rolled["jobs"]
            payload["jobs_done"] = rolled["jobs_done"]
            payload["jobs_durable"] = rolled["jobs_durable"]
        return payload

    def app_status(self) -> Dict[str, Any]:
        """This shard's job ledger roll-up + state fingerprints (picklable)."""
        if self.app_traffic is None:
            raise SimulationError(f"shard {self.spec.shard} hosts no app traffic")
        return {
            "shard": self.spec.shard,
            "metrics": self.app_traffic.metrics(),
            "fingerprints": self.app_traffic.fingerprints(),
        }

    def summary(self) -> Dict[str, Any]:
        """The base counters plus what only a shard has (picklable)."""
        return {
            **super().summary(),
            "shard": self.spec.shard,
            "pids": sorted(self.procs),
            "committed": self.committed_counts(),
            "trace_files": self.router.paths,
            "timer_errors": [
                f"{label or 'action'}: {exc!r}"
                for label, exc in self.runtime.scheduler.errors
            ],
            "frames_received": self.transport.frames_received,
            "intra_delivered": self.transport.intra_delivered,
            "misrouted": self.transport.misrouted,
        }


async def _worker_async(spec: WorkerSpec, conn: "Connection") -> None:
    """The worker's command loop: one request in, one reply out, forever.

    The parent speaks a strict request/response protocol over the pipe, so
    the loop reads exactly one command at a time (in an executor thread —
    the kernel keeps running between commands) and always answers with
    ``("ok", payload)`` or ``("error", traceback)``.
    """
    worker = ShardWorker(spec)
    loop = asyncio.get_running_loop()
    port = await worker.transport.listen()
    conn.send(("ready", {"shard": spec.shard, "port": port, "pids": sorted(worker.procs)}))
    running = True
    while running:
        command, payload = await loop.run_in_executor(None, conn.recv)
        try:
            result: Any = None
            if command == "peers":
                worker.transport.set_peers(payload)
            elif command == "start":
                await worker.start()
                result = {"t0": time.perf_counter()}
            elif command == "churn":
                result = worker.apply_churn(payload)
            elif command == "poll":
                result = worker.poll()
            elif command == "quiesce":
                # The parent drains by polling ``open_instances``.
                worker.stop_autonomous()
            elif command == "app_status":
                result = worker.app_status()
            elif command == "summary":
                result = worker.summary()
            elif command == "shutdown":
                await worker.shutdown(raise_errors=False)
                result = worker.summary()
                running = False
            else:
                raise SimulationError(f"unknown worker command {command!r}")
            conn.send(("ok", result))
        except Exception:  # noqa: BLE001 - every failure goes back to the parent
            conn.send(("error", traceback.format_exc()))
    conn.close()


def _worker_main(spec: WorkerSpec, conn: "Connection") -> None:
    """Entry point of a spawned shard worker process."""
    try:
        asyncio.run(_worker_async(spec, conn))
    except Exception:  # noqa: BLE001 - last-resort report before dying
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:  # pragma: no cover - parent already gone
            pass


# ----------------------------------------------------------------------
# Parent-side front door
# ----------------------------------------------------------------------

@dataclass
class _WorkerHandle:
    """The parent's view of one worker: process + request pipe."""

    shard: int
    process: Any
    conn: "Connection"
    port: Optional[int] = None
    pids: List[ProcessId] = field(default_factory=list)
    final_summary: Optional[Dict[str, Any]] = None

    def post(self, command: str, payload: Any = None) -> None:
        try:
            self.conn.send((command, payload))
        except OSError:  # the pipe broke: the worker is gone
            self.process.join(timeout=10.0)
            raise self._died() from None

    def _died(self) -> SimulationError:
        return SimulationError(f"shard {self.shard} worker died (exit {self.process.exitcode})")

    def wait(self, timeout: float = 120.0) -> Any:
        deadline = time.monotonic() + timeout
        while not self.conn.poll(0.05):
            if not self.process.is_alive():
                raise self._died()
            if time.monotonic() > deadline:
                raise SimulationError(f"shard {self.shard} worker timed out")
        status, payload = self.conn.recv()
        if status == "error":
            raise SimulationError(f"shard {self.shard} worker failed:\n{payload}")
        return payload

    def request(self, command: str, payload: Any = None, timeout: float = 120.0) -> Any:
        self.post(command, payload)
        return self.wait(timeout=timeout)


class ShardedCluster:
    """N protocol processes sharded across worker OS kernels.

    The front door mirrors :class:`~repro.runtime.cluster.Cluster` — build,
    ``start``, ``run_for``, the four control verbs ``kill``/``restart``/
    ``join``/``leave(pid, at=None)`` with the very signatures ``Cluster``
    gives them (by *pid*, without knowing its shard), ``shutdown``,
    ``merged_index``, ``summary`` — but the lifecycle methods are
    synchronous too: the cluster's kernels live in child processes and run
    in real time, so the parent only paces and observes.

    Construction performs the whole rendezvous: spawn workers, collect
    their link-server ports, broadcast the shard address map.  After
    ``start()`` every kernel is live and traffic flows; the parent's only
    runtime duties are failure injection and polling.
    """

    def __init__(
        self,
        n: int,
        root: str,
        shards: int,
        seed: int = 0,
        config: Optional[ProtocolConfig] = None,
        time_scale: float = 0.05,
        detector_latency: Optional[SimTime] = 2.0,
        spoolers: bool = True,
        delay: float = 0.5,
        workload: Optional[Dict[str, Any]] = None,
        app: Optional[Dict[str, Any]] = None,
        host: str = "127.0.0.1",
    ) -> None:
        if n < 2:
            raise SimulationError("a cluster needs at least 2 nodes")
        self.n = n
        self.root = str(root)
        self.shards = shards
        self.time_scale = time_scale
        self.ring = HashRing(shards)
        self._pids: set = set(range(n))
        self._departed: set = set()
        os.makedirs(self.root, exist_ok=True)
        # What every worker's ``Cluster.__init__`` receives, bar its own root.
        cluster_args = dict(
            n=n, seed=seed, config=config, time_scale=time_scale,
            detector_latency=detector_latency, spoolers=spoolers,
            delay_model=FixedDelay(delay),
        )
        # spawn, not fork: a worker starts from a fresh import, whatever
        # threads or loops the parent process happens to be running.
        context: "BaseContext" = get_context("spawn")
        self._workers: List[_WorkerHandle] = []
        self._started = False
        try:
            for shard in range(shards):
                parent_conn, child_conn = context.Pipe()
                spec = WorkerSpec(
                    shard=shard,
                    shards=shards,
                    cluster={**cluster_args, "root": os.path.join(self.root, f"shard-{shard}")},
                    workload=workload,
                    app=app,
                    host=host,
                )
                process = context.Process(
                    target=_worker_main, args=(spec, child_conn), daemon=True
                )
                process.start()
                child_conn.close()
                self._workers.append(_WorkerHandle(shard, process, parent_conn))
            for worker in self._workers:
                info = worker.wait(timeout=120.0)
                worker.port = info["port"]
                worker.pids = info["pids"]
            addrs = {w.shard: (host, w.port) for w in self._workers}
            self._broadcast("peers", lambda w: addrs)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Control-plane plumbing
    # ------------------------------------------------------------------
    def _broadcast(
        self,
        command: str,
        payload_for: Callable[[_WorkerHandle], Any] = lambda w: None,
        timeout: float = 120.0,
    ) -> List[Any]:
        """Post ``command`` to every worker, then gather every reply.

        Posting everything before waiting keeps the workers in lockstep —
        the start broadcast, notably, reaches all shards within a pipe
        write of each other, which bounds inter-shard clock skew.
        """
        for worker in self._workers:
            worker.post(command, payload_for(worker))
        return [worker.wait(timeout=timeout) for worker in self._workers]

    def owner(self, pid: ProcessId) -> _WorkerHandle:
        """The worker whose kernel hosts ``pid``.

        Every pid-routed front-door method (the control verbs, through
        :meth:`churn`) funnels through here, so an unknown pid fails with
        one clear ``KeyError`` naming the ring's population
        instead of surfacing as a confusing ``HashRing`` placement deep in
        a worker.
        """
        if pid not in self._pids:
            lo, hi = (min(self._pids), max(self._pids)) if self._pids else (0, -1)
            if len(self._pids) == hi - lo + 1:
                population = f"pids {lo}..{hi}"
            else:
                population = f"{len(self._pids)} pid(s)"
            raise KeyError(
                f"unknown pid P{pid}: the ring hosts {population} "
                f"across {self.shards} shard(s)"
            )
        return self._workers[self.ring.shard_of(pid)]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Boot every kernel (near-)simultaneously."""
        if self._started:
            raise SimulationError("sharded cluster already started")
        self._started = True
        self._broadcast("start")

    def run_for(self, duration: SimTime) -> None:
        """Let the cluster run for ``duration`` protocol time units."""
        time.sleep(duration * self.time_scale)

    def wait_until(
        self,
        predicate: Callable[[List[Dict[str, Any]]], bool],
        timeout: SimTime = 120.0,
        what: str = "condition",
    ) -> List[Dict[str, Any]]:
        """Poll every worker until ``predicate(polls)`` holds.

        ``predicate`` sees the list of per-shard :meth:`ShardWorker.poll`
        payloads; ``timeout`` is in protocol units, as in ``Cluster``.
        """
        deadline = time.monotonic() + timeout * self.time_scale
        while True:
            polls = self._broadcast("poll")
            if predicate(polls):
                return polls
            if time.monotonic() > deadline:
                raise SimulationError(
                    f"timed out after {timeout} time units awaiting {what}"
                )
            time.sleep(_POLL_EVERY)

    def wait_until_jobs_durable(self, timeout: SimTime = 120.0) -> None:
        """Block until every submitted app job completed *durably* (its
        completion is covered by a committed checkpoint on its host)."""
        def done(polls: List[Dict[str, Any]]) -> bool:
            return all(
                poll.get("jobs_durable", 0) >= poll.get("jobs", 0) for poll in polls
            )

        self.wait_until(done, timeout=timeout, what="app jobs to complete durably")

    def app_status(self) -> Dict[str, Any]:
        """Cluster-wide job ledger: merged counters + per-shard details.

        Fingerprints (``job -> (done, digest)``) merge disjointly — each
        job's ledger lives on the one shard hosting it.
        """
        per_shard = self._broadcast("app_status")
        merged: Dict[str, Any] = {
            key: sum(s["metrics"][key] for s in per_shard)
            for key in (
                "jobs", "jobs_done", "jobs_durable", "units_executed",
                "units_needed_done", "units_reexecuted", "retries", "resubmits",
            )
        }
        fingerprints: Dict[str, Any] = {}
        for shard_status in per_shard:
            fingerprints.update(shard_status["fingerprints"])
        weighted = [
            (s["metrics"]["latency_mean"], s["metrics"]["jobs_done"])
            for s in per_shard if s["metrics"]["latency_mean"] is not None
        ]
        merged["latency_mean"] = (
            sum(mean * n for mean, n in weighted) / sum(n for _, n in weighted)
            if weighted else None
        )
        merged["fingerprints"] = fingerprints
        merged["per_shard"] = [s["metrics"] for s in per_shard]
        return merged

    def wait_until_committed(self, count: int = 2, timeout: SimTime = 120.0) -> None:
        """Block until every live process has >= ``count`` committed checkpoints."""
        def done(polls: List[Dict[str, Any]]) -> bool:
            for poll in polls:
                for pid, committed in poll["committed"].items():
                    if poll["alive"].get(pid, True) and committed < count:
                        return False
            return True

        self.wait_until(done, timeout=timeout, what=f"{count} committed checkpoints")

    def quiesce(self, drain_timeout: SimTime = 60.0) -> None:
        """Stop autonomous initiation everywhere, then drain open instances.

        After this returns, no checkpoint/rollback tree is mid-2PC anywhere
        in the cluster, so a subsequent :meth:`shutdown` never cuts a run
        between the root's commit and a cohort's — the merged trace's
        recovery line is a settled one.
        """
        self._broadcast("quiesce")
        self.wait_until(
            lambda polls: sum(p["open_instances"] for p in polls) == 0,
            timeout=drain_timeout,
            what="open instances to drain",
        )

    def shutdown(self) -> None:
        """Stop every kernel, collect final summaries, reap the workers."""
        for worker in self._workers:
            if worker.final_summary is None and worker.process.is_alive():
                worker.final_summary = worker.request("shutdown")
        for worker in self._workers:
            worker.process.join(timeout=30.0)
        self.close()

    def close(self) -> None:
        """Hard-stop any still-running workers (idempotent; error cleanup)."""
        for worker in self._workers:
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=10.0)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    # ------------------------------------------------------------------
    # Failure injection and membership (by pid; the shard is the
    # cluster's business).  Every transition funnels through the batched
    # churn command: ONE pipe message per worker carries the whole batch,
    # however many kills/restarts/joins/leaves it contains, instead of a
    # per-pid fan-out of per-worker notices.
    # ------------------------------------------------------------------
    def churn(self, ops: List[Dict[str, Any]]) -> List[Any]:
        """Apply a batch of churn ops cluster-wide with one post per shard.

        Each op is ``{"kind": "kill"|"restart"|"join"|"leave", "pid": p}``
        plus optional ``"at"`` (kernel time; omitted or ``None`` for "now")
        and, for leaves, ``"successor"``.  The four verbs below are one-op
        batches.  Validation and the parent's membership
        bookkeeping happen here; workers split the batch into local
        transitions and remote notices themselves (they share the ring).
        """
        for op in ops:
            kind, pid = op["kind"], op["pid"]
            if kind in ("kill", "restart", "leave"):
                self.owner(pid)  # raises KeyError for an unknown pid
            elif kind == "join":
                if pid in self._pids:
                    raise SimulationError(f"P{pid} is already a cluster member")
                if pid in self._departed:
                    raise SimulationError(f"P{pid} departed and cannot be reused")
            else:
                raise SimulationError(f"unknown churn op kind {kind!r}")
            successor = op.get("successor")
            if successor is not None and successor not in self._pids:
                raise KeyError(f"unknown successor P{successor}")
        results = self._broadcast("churn", lambda w: ops)
        for op in ops:
            kind, pid = op["kind"], op["pid"]
            if kind == "join":
                self._pids.add(pid)
            elif kind == "leave":
                self._pids.discard(pid)
                self._departed.add(pid)
        return results

    def kill(self, pid: ProcessId, at: Optional[SimTime] = None) -> None:
        """Crash ``pid`` on its owning shard; notify every other shard."""
        self.churn([{"kind": "kill", "pid": pid, "at": at}])

    def restart(self, pid: ProcessId, at: Optional[SimTime] = None) -> None:
        """Recover ``pid`` from its shard-local stable storage."""
        self.churn([{"kind": "restart", "pid": pid, "at": at}])

    def join(self, pid: ProcessId, at: Optional[SimTime] = None) -> None:
        """Grow the cluster: admit brand-new ``pid`` on its ring-owner shard."""
        self.churn([{"kind": "join", "pid": pid, "at": at}])

    def leave(
        self,
        pid: ProcessId,
        successor: Optional[ProcessId] = None,
        at: Optional[SimTime] = None,
    ) -> None:
        """Shrink the cluster: gracefully retire ``pid`` (handoff to
        ``successor`` when given)."""
        self.churn([{"kind": "leave", "pid": pid, "successor": successor, "at": at}])

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def trace_paths(self) -> List[str]:
        """Every per-node JSONL trace shard across all shard directories."""
        return sorted(glob.glob(os.path.join(self.root, "shard-*", "trace", "*.jsonl")))

    def merged_index(self) -> "TraceIndex":
        """Stitch every shard's trace files into one queryable index.

        Call after :meth:`shutdown` (the streams must be flushed); also
        usable on the debris of a crashed run — partial tail lines are
        tolerated and counted on the index.
        """
        from repro.analysis.index import TraceIndex

        return TraceIndex.from_jsonl_files(self.trace_paths())

    def committed_counts(self) -> Dict[ProcessId, int]:
        """Committed checkpoints per process, merged across shards."""
        counts: Dict[ProcessId, int] = {}
        for worker in self._workers:
            source = worker.final_summary
            poll = source if source is not None else worker.request("poll")
            counts.update(poll["committed"])
        return counts

    def summary(self) -> Dict[str, Any]:
        """Aggregated counters plus the per-shard sub-summaries."""
        per_shard = []
        for worker in self._workers:
            if worker.final_summary is not None:
                per_shard.append(worker.final_summary)
            else:
                per_shard.append(worker.request("summary"))
        totals = {
            key: sum(s[key] for s in per_shard)
            for key in (
                "normal_sent", "control_sent", "delivered", "dropped", "spooled",
                "trace_events", "frames_sent", "frames_received", "batches_sent",
                "bytes_sent", "intra_delivered", "misrouted", "links_rejected",
            )
        }
        return {
            **totals,
            "nodes": len(self._pids),
            "shards": self.shards,
            "cpus": visible_cpus(),
            "now": max(s["now"] for s in per_shard),
            "committed": {
                str(pid): count
                for s in per_shard for pid, count in s["committed"].items()
            },
            "timer_errors": sum(len(s["timer_errors"]) for s in per_shard),
            "per_shard": per_shard,
        }
