"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while still
being able to discriminate on the specific failure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` library."""


class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly.

    Examples: scheduling an event in the past, running a simulation that was
    already exhausted, registering two nodes with the same identifier.
    """


class NetworkError(ReproError):
    """Message routing failed (unknown destination, malformed envelope)."""


class StableStorageError(ReproError):
    """Stable storage violated its contract or was misused.

    Raised for reads of never-written slots, corrupted file-backed records,
    or commits of a checkpoint slot that does not exist.
    """


class ProtocolError(ReproError):
    """A checkpoint/rollback protocol invariant was violated.

    These indicate a bug in a protocol implementation (ours or a baseline's),
    never an expected runtime condition: the algorithms under study are
    supposed to make these states unreachable.
    """


class ConsistencyViolation(ReproError):
    """An analysis checker found a violated consistency constraint.

    Carries the offending messages / checkpoints so tests and benchmarks can
    report exactly which constraint (C1, C2, or Definition 4) failed and why.
    """

    def __init__(self, constraint: str, detail: str):
        self.constraint = constraint
        self.detail = detail
        super().__init__(f"{constraint} violated: {detail}")


class WireError(ReproError):
    """A live-runtime wire frame could not be encoded or decoded.

    Raised for unregistered body types, oversized frames, and truncated or
    malformed payloads read off a socket.
    """


class TransportError(ReproError):
    """A live-runtime transport was misused or failed to start.

    Distinct from :class:`NetworkError` (routing policy): this covers the
    socket/loopback machinery itself — double starts, unknown endpoints,
    sends on a stopped transport.
    """


class WorkloadError(ReproError):
    """A workload script referenced an unknown process or malformed step."""
