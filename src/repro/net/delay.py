"""Message-delay models.

Delays determine whether channels behave FIFO-ish or aggressively reorder.
The Leu-Bhargava algorithm must be correct under *any* of these (it assumes
non-FIFO channels); the Koo-Toueg and Chandy-Lamport baselines assume FIFO
and are run either on a FIFO channel (see :mod:`repro.net.channel`) or — for
the E-NONFIFO experiment — deliberately on a reordering one to show the
assumption is load-bearing.

All models draw exclusively from the named :class:`repro.sim.rng.Rng` stream
``("delay", src, dst)`` so delays are reproducible and independent of other
randomness in the run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from repro.errors import NetworkError
from repro.types import ProcessId, SimTime

if TYPE_CHECKING:  # pragma: no cover - repro.sim imports this package
    from repro.sim.rng import Rng


class DelayModel(Protocol):
    """Strategy interface: sample the transit delay for one message."""

    def sample(self, rng: Rng, src: ProcessId, dst: ProcessId) -> SimTime:
        """Return a non-negative transit delay for a ``src -> dst`` message."""
        ...


class FixedDelay:
    """Every message takes exactly ``delay`` time units (perfectly FIFO)."""

    def __init__(self, delay: SimTime = 1.0):
        if delay < 0:
            raise NetworkError(f"negative delay {delay}")
        self.delay = delay

    def sample(self, rng: Rng, src: ProcessId, dst: ProcessId) -> SimTime:
        return self.delay


class UniformDelay:
    """Delays drawn uniformly from ``[low, high]`` — mild natural reordering."""

    def __init__(self, low: SimTime = 0.5, high: SimTime = 1.5):
        if not 0 <= low <= high:
            raise NetworkError(f"invalid uniform delay range [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng: Rng, src: ProcessId, dst: ProcessId) -> SimTime:
        return rng.stream("delay", src, dst).uniform(self.low, self.high)


class ExponentialDelay:
    """Exponentially distributed delays with mean ``mean`` (heavy reordering).

    A small ``floor`` keeps delays strictly positive so a message never
    arrives at its own send instant.
    """

    def __init__(self, mean: SimTime = 1.0, floor: SimTime = 0.01):
        if mean <= 0:
            raise NetworkError(f"non-positive mean delay {mean}")
        self.mean = mean
        self.floor = floor

    def sample(self, rng: Rng, src: ProcessId, dst: ProcessId) -> SimTime:
        return self.floor + rng.stream("delay", src, dst).expovariate(1.0 / self.mean)


class AdversarialReorderDelay:
    """Alternates short and very long delays per channel.

    Guarantees that consecutive messages on the same channel are delivered
    out of order (message ``k`` sent before ``k+1`` arrives after it whenever
    ``k`` drew the long delay).  This is the worst case for protocols that
    assume FIFO and the stress case for label-based bookkeeping.
    """

    def __init__(self, short: SimTime = 0.1, long: SimTime = 5.0):
        if not 0 <= short < long:
            raise NetworkError(f"need 0 <= short < long, got {short}, {long}")
        self.short = short
        self.long = long
        self._toggle: dict = {}

    def sample(self, rng: Rng, src: ProcessId, dst: ProcessId) -> SimTime:
        key = (src, dst)
        use_long = self._toggle.get(key, False)
        self._toggle[key] = not use_long
        return self.long if use_long else self.short


class LossyDelay:
    """Wraps another model and adds retransmission latency for lost messages.

    The paper assumes lost messages are retransmitted by an end-to-end
    protocol; from the algorithm's viewpoint loss is just extra delay.  Each
    loss adds one ``retransmit_timeout`` plus a fresh base-model delay, and a
    message can be lost several times in a row.
    """

    def __init__(
        self,
        base: DelayModel,
        loss_probability: float = 0.1,
        retransmit_timeout: SimTime = 3.0,
        max_losses: int = 20,
    ):
        if not 0 <= loss_probability < 1:
            raise NetworkError(f"loss probability {loss_probability} not in [0, 1)")
        self.base = base
        self.loss_probability = loss_probability
        self.retransmit_timeout = retransmit_timeout
        self.max_losses = max_losses

    def sample(self, rng: Rng, src: ProcessId, dst: ProcessId) -> SimTime:
        stream = rng.stream("loss", src, dst)
        delay = self.base.sample(rng, src, dst)
        losses = 0
        while losses < self.max_losses and stream.random() < self.loss_probability:
            delay += self.retransmit_timeout + self.base.sample(rng, src, dst)
            losses += 1
        return delay
