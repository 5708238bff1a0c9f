"""The live runtime's network facade: simulator policy, real transport.

:class:`RuntimeNetwork` is :class:`repro.net.network.Network` with exactly
one substitution — :meth:`transmit` asks the kernel whether the destination
is a member (``KernelCore.is_member``: hosted here; a shard kernel answers
from its membership plane, for the whole cluster) and hands the envelope to
a :class:`~repro.runtime.transport.Transport` instead of scheduling a
virtual delivery.  Everything else (partition policy, spooler registry, crash
filtering, the normal/CONTROL counters, delivery-time bookkeeping) is the
inherited code, byte for byte, which is what makes the simulator's message
accounting comparable with a live run's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import NetworkError
from repro.net.network import Network

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.delay import DelayModel
    from repro.net.message import Envelope
    from repro.runtime.transport import Transport


class RuntimeNetwork(Network):
    """Network facade whose transmission medium is a real transport."""

    def __init__(
        self,
        transport: "Transport",
        delay_model: Optional["DelayModel"] = None,
    ) -> None:
        super().__init__(delay_model=delay_model)
        self.transport = transport

    def transmit(self, envelope: "Envelope") -> None:
        """Stamp, count, and hand the envelope to the transport."""
        if not self.sim.is_member(envelope.dst):
            if self._is_departed(envelope.dst):
                # Same salvage policy as the simulated network: a sender
                # with a stale view of a graceful departure is not a
                # routing error.
                self._accept(envelope)
                self.salvaged_departed += 1
                self.spool_or_drop(envelope, "departed")
                return
            raise NetworkError(f"unknown destination P{envelope.dst}")
        self._accept(envelope)
        self.transport.send(envelope)
