"""Client-server request/response workload.

Clients issue requests to servers; a server's application replies to each
request after a service time.  This produces the *reactive* dependency
pattern (server state depends on client messages and vice versa) that makes
checkpoint trees deep: a server checkpoint drags in every client it heard
from, and a client rollback drags in the server and transitively its other
clients.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.core.app import CounterApp
from repro.types import ProcessId, SimTime
from repro.workloads.base import ProtocolDriver, Workload, exponential_arrivals

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulation import Simulation


class ReplyingServerApp(CounterApp):
    """Server application: consumes requests, sends responses.

    The reply is issued through the owning process's ``send_app_message``
    after ``service_time``, so it follows the protocol's suspension rules
    like any other normal message.
    """

    def __init__(self, pid: ProcessId, service_time: SimTime = 0.2):
        super().__init__(pid)
        self.service_time = service_time
        self.process: Optional[ProtocolDriver] = None
        self.replies_sent = 0

    def handle_message(self, src: ProcessId, payload: Any) -> None:
        super().handle_message(src, payload)
        if isinstance(payload, dict) and payload.get("type") == "request":
            proc = self.process
            if proc is None:
                return
            self.replies_sent += 1
            response = {"type": "response", "req": payload.get("id")}
            proc.sim.scheduler.after(
                self.service_time,
                lambda: proc.send_app_message(src, response),
                label=f"server P{self.pid} reply",
            )


class ClientServerWorkload(Workload):
    """Poisson request streams from each client to random servers."""

    name = "client_server"

    def __init__(
        self,
        servers: List[ProcessId],
        request_rate: float = 1.0,
        duration: SimTime = 100.0,
        service_time: SimTime = 0.2,
    ):
        self.servers = servers
        self.request_rate = request_rate
        self.duration = duration
        self.service_time = service_time

    def install(self, sim: "Simulation", procs: Dict[ProcessId, ProtocolDriver]) -> None:
        for server_pid in self.servers:
            server = procs[server_pid]
            app = ReplyingServerApp(server_pid, self.service_time)
            app.process = server
            server.engine.app = app

        clients = [pid for pid in sorted(procs) if pid not in self.servers]
        for pid in clients:
            proc = procs[pid]
            pick = sim.rng.stream(self.name, "server", pid)
            for k, t in enumerate(
                exponential_arrivals(sim, (self.name, "req", pid), self.request_rate, self.duration)
            ):
                server_pid = pick.choice(self.servers)
                request = {"type": "request", "id": f"{pid}-{k}"}
                sim.scheduler.at(
                    t,
                    lambda p=proc, d=server_pid, r=request: p.send_app_message(d, r),
                    label=f"client P{pid} request",
                )
