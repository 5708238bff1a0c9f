"""Live deployment runtime: the paper's protocols outside the simulator.

The subsystem mirrors the simulator's layering:

* :mod:`repro.runtime.loop` — :class:`AsyncRuntime`, the second
  :class:`repro.kernel.KernelLike` kernel (real asyncio timers and clock);
* :mod:`repro.runtime.transport` — the in-process loopback transport and
  the batched length-prefixed TCP links both socket transports share;
* :mod:`repro.runtime.wire` — the wire codec and framing;
* :mod:`repro.runtime.network` — the one :class:`repro.net.network.Network`
  subclass, which asks its kernel who is a member and transmits via a
  transport;
* :mod:`repro.runtime.cluster` — the N-node harness with per-node stable
  storage, per-node JSONL traces, spooler groups, kill/restart, join/leave;
* :mod:`repro.runtime.shard` — the multi-process sharded runtime: one
  worker per core, each a :class:`Cluster` over its consistent-hash slice
  on a kernel whose membership plane is the whole cluster, batched
  inter-shard links, and the :class:`ShardedCluster` front door;
* ``python -m repro.runtime`` — a demo CLI that boots a cluster (optionally
  sharded via ``--shards``), injects a failure, and consistency-checks the
  merged trace.
"""

from repro.runtime.cluster import Cluster, PidRouterSink
from repro.runtime.loop import AsyncRuntime, AsyncScheduler
from repro.runtime.network import RuntimeNetwork
from repro.runtime.shard import HashRing, ShardedCluster, ShardTransport
from repro.runtime.transport import LoopbackTransport, TcpTransport, Transport

__all__ = [
    "AsyncRuntime",
    "AsyncScheduler",
    "Cluster",
    "HashRing",
    "LoopbackTransport",
    "PidRouterSink",
    "RuntimeNetwork",
    "ShardTransport",
    "ShardedCluster",
    "TcpTransport",
    "Transport",
]
