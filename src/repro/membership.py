"""Membership as a first-class plane (dynamic join/leave, Nakamura-style).

Leu-Bhargava assumes a fixed process set; this module removes that
assumption without touching the static-membership fast paths.  A
:class:`MembershipPlane` is owned by every kernel
(:class:`repro.kernel.KernelCore`) and publishes an epoch-numbered,
immutable :class:`MembershipView` — the single source of truth about which
processes exist.  One layer *subscribes* and is told about every transition:
the failure detector, which prunes its beliefs about pids that are no longer
members.  The others *ask*: the network asks :meth:`MembershipPlane.
is_departed` before treating an unknown destination as a routing error, and
a shard kernel (:class:`repro.runtime.shard.ShardRuntime`), which seeds its
plane with every pid of the cluster, answers ``process_ids`` / ``is_member``
/ remote ``is_alive`` from it.  Engines hear of joins and leaves from their
kernel (``on_join_peer`` / ``on_leave_peer``), not from the plane.

Lifecycle of a pid:

* ``seed(pid)`` — pre-start registration via ``KernelCore.add_node``.
  Silent: no epoch bump, no notification, so a static-membership run
  produces bit-identical traces to the pre-membership code.
* ``begin_join(pid)`` / ``complete_join(pid)`` — a process entering a live
  instance.  The pid is visible in ``view.joining`` between the two calls,
  and in ``view.pids`` afterwards.
* ``begin_leave(pid)`` / ``complete_leave(pid)`` — a graceful departure.
  The pid is in ``view.leaving`` while its checkpoint obligations are being
  handed off, then moves to the plane's ``departed`` set (never reused).

Every transition except ``seed`` bumps the epoch and notifies subscribers,
so "the view changed" is always observable and totally ordered per kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Iterable, List, Set, Tuple

from repro.errors import SimulationError
from repro.types import ProcessId


@dataclass(frozen=True)
class MembershipView:
    """One immutable snapshot of the membership plane.

    ``pids`` are the current members; ``joining``/``leaving`` are the pids
    mid-transition (announced but not yet completed); ``departed`` are pids
    that left for good — their ids are retired, and traffic addressed to
    them is salvaged rather than treated as a routing error.
    """

    epoch: int = 0
    pids: Tuple[ProcessId, ...] = ()
    joining: Tuple[ProcessId, ...] = ()
    leaving: Tuple[ProcessId, ...] = ()
    departed: FrozenSet[ProcessId] = field(default_factory=frozenset)

    def __contains__(self, pid: ProcessId) -> bool:
        return pid in self.pids

    def is_departed(self, pid: ProcessId) -> bool:
        return pid in self.departed


#: A subscriber receives every published view, in epoch order.
ViewSubscriber = Callable[[MembershipView], None]


class MembershipPlane:
    """The mutable registry behind the immutable views."""

    def __init__(self, pids: Iterable[ProcessId] = ()) -> None:
        self._epoch = 0
        self._pids: Set[ProcessId] = set(pids)
        self._joining: Set[ProcessId] = set()
        self._leaving: Set[ProcessId] = set()
        self._departed: Set[ProcessId] = set()
        self._subscribers: List[ViewSubscriber] = []

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def view(self) -> MembershipView:
        return MembershipView(
            epoch=self._epoch,
            pids=tuple(sorted(self._pids)),
            joining=tuple(sorted(self._joining)),
            leaving=tuple(sorted(self._leaving)),
            departed=frozenset(self._departed),
        )

    def is_member(self, pid: ProcessId) -> bool:
        return pid in self._pids

    def is_departed(self, pid: ProcessId) -> bool:
        return pid in self._departed

    # ------------------------------------------------------------------
    # Subscription
    # ------------------------------------------------------------------
    def subscribe(self, callback: ViewSubscriber) -> None:
        """Register for every future view change (no replay of the past)."""
        self._subscribers.append(callback)

    def _publish(self) -> MembershipView:
        self._epoch += 1
        view = self.view
        for callback in list(self._subscribers):
            callback(view)
        return view

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def seed(self, pid: ProcessId) -> None:
        """Silent pre-start registration (no epoch bump, no notification).

        Idempotent for a pid mid-join: the join flow owns its visibility.
        """
        if pid in self._departed:
            raise SimulationError(f"pid {pid} departed and cannot be reused")
        if pid in self._joining:
            return
        self._pids.add(pid)

    def begin_join(self, pid: ProcessId) -> MembershipView:
        if pid in self._pids or pid in self._joining:
            raise SimulationError(f"pid {pid} is already a member or joining")
        if pid in self._departed:
            raise SimulationError(f"pid {pid} departed and cannot be reused")
        self._joining.add(pid)
        return self._publish()

    def complete_join(self, pid: ProcessId) -> MembershipView:
        if pid not in self._joining:
            raise SimulationError(f"pid {pid} has no join in progress")
        self._joining.discard(pid)
        self._pids.add(pid)
        return self._publish()

    def begin_leave(self, pid: ProcessId) -> MembershipView:
        if pid not in self._pids:
            raise SimulationError(f"pid {pid} is not a member")
        if pid in self._leaving:
            raise SimulationError(f"pid {pid} is already leaving")
        self._leaving.add(pid)
        return self._publish()

    def complete_leave(self, pid: ProcessId) -> MembershipView:
        if pid not in self._leaving:
            raise SimulationError(f"pid {pid} has no leave in progress")
        self._leaving.discard(pid)
        self._pids.discard(pid)
        self._departed.add(pid)
        return self._publish()


__all__ = ["MembershipPlane", "MembershipView", "ViewSubscriber"]
