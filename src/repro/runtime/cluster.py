"""The N-node live-cluster harness.

:class:`Cluster` assembles everything a deployed run needs around one
:class:`~repro.runtime.loop.AsyncRuntime`:

* each node gets its own on-disk stable storage directory
  (:class:`~repro.stable.storage.WriteBehindFileStableStorage` under
  ``<root>/node-<pid>/``), so a restart genuinely recovers from files;
* the trace streams through a :class:`PidRouterSink` into per-node JSONL
  files (``<root>/trace/node-<pid>.jsonl``; kernel-level events such as
  partitions land in ``cluster.jsonl``) — the shape a real multi-host
  deployment would produce, stitched back together by
  :meth:`repro.analysis.index.TraceIndex.from_jsonl_files`;
* a :class:`~repro.failure.detector.FailureDetector` and (optionally) the
  Section 6 spooler groups — each pid's spool replicated on its next two
  hosted neighbours, never on itself;
* four control verbs drive a *live* cluster, each a plain function that
  runs now or — given ``at`` — as a kernel timer: :meth:`Cluster.kill` /
  :meth:`Cluster.restart` take a node down (protocol crash plus transport
  disconnect) and bring it back from its storage directory, exercising the
  Section 6 exception rules against real timers and sockets;
  :meth:`Cluster.join` / :meth:`Cluster.leave` grow and shrink the
  membership.  :class:`~repro.runtime.shard.ShardedCluster` spells them
  with the same signatures.

A cluster hosts the pids :meth:`Cluster._owns` claims, on the kernel
:meth:`Cluster._kernel` builds.  Here that is every pid on an
``AsyncRuntime``; a shard worker (:class:`~repro.runtime.shard.ShardWorker`)
overrides the two hooks to host its ring slice on a kernel that answers for
the whole cluster, and inherits the rest — provisioning, spooler groups,
the verbs, the observation methods and the shutdown sequence.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Type

from repro.core import CheckpointProcess, ProtocolConfig
from repro.errors import SimulationError, TransportError
from repro.failure import FailureDetector
from repro.net.delay import FixedDelay
from repro.priorities import PRIORITY_TIMER
from repro.runtime.loop import AsyncRuntime
from repro.runtime.transport import LinkTransport, LoopbackTransport, TcpTransport, Transport
from repro.sim.trace import JsonlStreamSink, TraceEvent, TraceSink
from repro.stable.storage import WriteBehindFileStableStorage
from repro.types import ProcessId, SimTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.index import TraceIndex
    from repro.net.delay import DelayModel


#: Operations a node's write-behind stable storage buffers between flushes.
_STORAGE_FLUSH_EVERY = 8


class PidRouterSink(TraceSink):
    """Routes each trace event to a per-process JSONL stream.

    Events carrying a ``pid`` go to ``node-<pid>.jsonl``; kernel-level
    events (partitions, merges) to ``cluster.jsonl``.  This reproduces the
    files a real per-host deployment would write locally, so the merge
    tooling is tested against honestly sharded input.
    """

    def __init__(self, root: str) -> None:
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self._sinks: Dict[Optional[ProcessId], JsonlStreamSink] = {}

    def emit(self, event: TraceEvent) -> None:
        sink = self._sinks.get(event.pid)
        if sink is None:
            name = "cluster.jsonl" if event.pid is None else f"node-{event.pid}.jsonl"
            sink = self._sinks[event.pid] = JsonlStreamSink(os.path.join(self.root, name))
        sink.emit(event)

    def flush(self) -> None:
        """Force every per-node stream's buffer out (e.g. for mid-run reads)."""
        for sink in self._sinks.values():
            sink.flush()

    def close(self) -> None:
        for sink in self._sinks.values():
            sink.close()

    @property
    def paths(self) -> List[str]:
        """The JSONL files written so far, in stable (pid) order."""
        return [
            self._sinks[key].path
            for key in sorted(self._sinks, key=lambda k: (k is None, k))
        ]


class Cluster:
    """N protocol nodes on one live kernel, with real storage and traces."""

    def __init__(
        self,
        n: int,
        root: str,
        seed: int = 0,
        transport: "str | Transport" = "tcp",
        config: Optional[ProtocolConfig] = None,
        process_cls: Type[CheckpointProcess] = CheckpointProcess,
        time_scale: float = 0.05,
        detector_latency: Optional[SimTime] = 2.0,
        spoolers: bool = True,
        delay_model: Optional["DelayModel"] = None,
        codec: "bool | str" = "binary",
        extra_sinks: Sequence[TraceSink] = (),
    ) -> None:
        if n < 2:
            raise SimulationError("a cluster needs at least 2 nodes")
        if codec is not True and codec != "binary":
            raise TransportError(
                f"unknown codec {codec!r}: there is one wire format, 'binary' "
                "(JSON wire v1 was removed), and every transport encodes with it"
            )
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self.router = PidRouterSink(os.path.join(self.root, "trace"))
        if isinstance(transport, Transport):
            self.transport = transport
        elif transport == "tcp":
            self.transport = TcpTransport()
        else:
            self.transport = LoopbackTransport()
        self.runtime = self._kernel(
            n,
            seed=seed,
            transport=self.transport,
            delay_model=delay_model or FixedDelay(0.5),
            sinks=[self.router, *extra_sinks],
            time_scale=time_scale,
        )
        self.config = config
        self.process_cls = process_cls
        self.spoolers = spoolers
        self.storages: Dict[ProcessId, WriteBehindFileStableStorage] = {}
        self.procs: Dict[ProcessId, CheckpointProcess] = {}
        for pid in range(n):
            if self._owns(pid):
                self.runtime.add_node(self._provision(pid))
        self.detector: Optional[FailureDetector] = None
        if detector_latency is not None:
            self.detector = FailureDetector(
                self.runtime, detection_latency=detector_latency
            )
        for pid in self.procs:
            self._install_spoolers(pid)

    # ------------------------------------------------------------------
    # What this cluster hosts, and on which kernel (the subclass hooks)
    # ------------------------------------------------------------------
    def _kernel(self, n: int, **kernel_args: Any) -> AsyncRuntime:
        """Build the kernel for an ``n``-pid cluster."""
        return AsyncRuntime(**kernel_args)

    def _owns(self, pid: ProcessId) -> bool:
        """True if this cluster hosts ``pid`` (storage, process, spoolers)."""
        return True

    def _provision(self, pid: ProcessId) -> CheckpointProcess:
        """Create ``pid``'s storage directory and its process over it."""
        storage = WriteBehindFileStableStorage(
            os.path.join(self.root, f"node-{pid}"), flush_every=_STORAGE_FLUSH_EVERY
        )
        self.storages[pid] = storage
        self.procs[pid] = self.process_cls(pid, self.config, storage=storage)
        return self.procs[pid]

    def _install_spoolers(self, pid: ProcessId) -> None:
        """Replicate ``pid``'s spool on its next two neighbours in hosted
        order — never on ``pid`` itself: the group exists for when it is down.

        Hosts are always hosted here, because the owning kernel answers the
        liveness checks and the recovery drain.
        """
        if not self.spoolers:
            return
        hosted = sorted(self.procs)
        at = hosted.index(pid)
        hosts: List[ProcessId] = []
        for step in (1, 2):
            host = hosted[(at + step) % len(hosted)]
            if host != pid and host not in hosts:
                hosts.append(host)
        if hosts:
            self.runtime.network.install_spoolers(pid, hosts)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        await self.runtime.start()

    async def run_for(self, duration: SimTime) -> SimTime:
        return await self.runtime.run_for(duration)

    async def wait_until(
        self,
        predicate: Callable[[], bool],
        timeout: SimTime = 120.0,
        what: str = "condition",
    ) -> SimTime:
        return await self.runtime.wait_until(predicate, timeout=timeout, what=what)

    def open_instances(self) -> int:
        """Checkpoint/rollback tree rounds still open on hosted engines."""
        return sum(
            sum(1 for s in p.engine.trees.all_chkpt_rounds() if not s.closed)
            + sum(1 for s in p.engine.trees.roll.values() if not s.closed)
            for p in self.procs.values()
        )

    def stop_autonomous(self) -> None:
        """Stop autonomous checkpoint initiation on every hosted engine.

        In-flight instances finish normally; no new trees start.
        """
        for proc in self.procs.values():
            proc.engine.autonomous_checkpoints = False

    async def quiesce(
        self, drain_timeout: SimTime = 60.0, settle: SimTime = 2.0
    ) -> None:
        """Stop autonomous initiation, drain open 2PC rounds, settle.

        After this returns no tree is mid-2PC anywhere, so a subsequent
        :meth:`shutdown` never cuts the run between a root's commit and a
        cohort's — the merged trace's recovery line is a settled one, not a
        mid-commit snapshot (mirrors :meth:`ShardedCluster.quiesce`).
        ``settle`` lets the final decision propagation land before the cut.
        """
        self.stop_autonomous()
        await self.runtime.wait_until(
            lambda: self.open_instances() == 0,
            timeout=drain_timeout,
            what="open instances to drain",
        )
        if settle:
            await self.run_for(settle)

    async def shutdown(self, raise_errors: bool = True) -> None:
        """Stop the kernel, flush every storage, close the trace streams."""
        await self.runtime.shutdown(raise_errors=raise_errors)
        for storage in self.storages.values():
            storage.flush()
        self.runtime.trace.close()

    # ------------------------------------------------------------------
    # The control verbs: kill / restart / join / leave, now or at a time
    # ------------------------------------------------------------------
    def _now_or_at(
        self, at: Optional[SimTime], kind: str, pid: ProcessId, action: Callable[[], None]
    ) -> None:
        """Run ``action`` now, or as a kernel timer at time ``at``.

        A timer can be armed before :meth:`start`, and a transition that
        fails inside one lands in ``scheduler.errors`` like any other timer
        error (``summary()["timer_errors"]``, re-raised at shutdown).
        """
        if at is None:
            action()
        else:
            self.runtime.scheduler.at(
                at, action, priority=PRIORITY_TIMER, label=f"{kind} P{pid}"
            )

    def kill(self, pid: ProcessId, at: Optional[SimTime] = None) -> None:
        """Take a live node down: protocol crash + network disappearance."""

        def kill() -> None:
            self.runtime.crash(pid)
            self.transport.disconnect(pid)

        self._now_or_at(at, "kill", pid, kill)

    def restart(self, pid: ProcessId, at: Optional[SimTime] = None) -> None:
        """Bring a killed node back on its original endpoint and storage."""

        def restart() -> None:
            self.transport.reconnect(pid)
            self.runtime.recover(pid)

        self._now_or_at(at, "restart", pid, restart)

    def join(self, pid: ProcessId, at: Optional[SimTime] = None) -> None:
        """Grow the live cluster: provision and admit brand-new ``pid``.

        The new node gets its own storage directory and (under TCP) its own
        listening endpoint *before* the membership transition runs, so its
        ``on_start`` traffic and any peer's first message to it have
        somewhere to go; afterwards it gets its spooler group.
        """

        def join() -> None:
            if pid in self.procs:
                raise SimulationError(f"P{pid} is already a cluster member")
            self.transport.connect(pid)
            self.runtime.join_node(self._provision(pid))
            self._install_spoolers(pid)

        self._now_or_at(at, "join", pid, join)

    def leave(
        self,
        pid: ProcessId,
        successor: Optional[ProcessId] = None,
        at: Optional[SimTime] = None,
    ) -> None:
        """Shrink the live cluster: gracefully retire ``pid``.

        The kernel runs the handoff (obligations travel to ``successor`` as
        an ordinary control message), then the node's storage is flushed and
        its endpoint closed — the directory stays on disk for post-mortem
        trace analysis.
        """

        def leave() -> None:
            self.runtime.leave_node(pid, successor)
            self.storages[pid].flush()
            del self.procs[pid]
            self.transport.disconnect(pid)

        self._now_or_at(at, "leave", pid, leave)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def merged_index(self) -> "TraceIndex":
        """Stitch the per-node JSONL traces into one queryable index.

        Call after :meth:`shutdown` (the streams must be flushed).
        """
        from repro.analysis.index import TraceIndex

        return TraceIndex.from_jsonl_files(self.router.paths)

    def committed_counts(self) -> Dict[ProcessId, int]:
        """Committed checkpoints per process (including the birth one)."""
        return {pid: len(proc.committed_history) for pid, proc in self.procs.items()}

    def summary(self) -> Dict[str, Any]:
        """Counters a demo or CI artifact wants at end of run."""
        net = self.runtime.network
        wire_stats: Dict[str, Any] = {}
        if isinstance(self.transport, LinkTransport):
            wire_stats = {
                "frames_sent": self.transport.frames_sent,
                "batches_sent": self.transport.batches_sent,
                "bytes_sent": self.transport.bytes_sent,
                "links_rejected": self.transport.links_rejected,
            }
        if isinstance(self.transport, TcpTransport):
            wire_stats["wire_generations"] = self.transport.generation_summary()
        return {
            **wire_stats,
            "now": self.runtime.now,
            "nodes": len(self.procs),
            "normal_sent": net.normal_sent,
            "control_sent": net.control_sent,
            "delivered": net.delivered,
            "dropped": net.dropped,
            "spooled": net.spooled,
            "committed": {
                str(pid): count for pid, count in self.committed_counts().items()
            },
            "trace_events": self.runtime.trace.events_recorded,
            "timer_errors": len(self.runtime.scheduler.errors),
        }
