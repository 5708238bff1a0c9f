"""Message spoolers for failed processes (paper Section 6, assumption e).

When a process is down, messages addressed to it are redirected to its
spoolers; on restart the process drains them.  The paper uses spoolers for
two things we reproduce:

1. normal messages in transit to a failed process are not lost, and
2. a restarting process asks its spoolers whether a ``commit``/``abort``
   decision for its uncommitted checkpoint was broadcast while it was down
   (recovery rule 3).

Spoolers can be replicated; a :class:`SpoolerGroup` survives as long as at
least one replica is alive.  Replicas live on host processes — if the host
crashes, its replica is unavailable until the host recovers (contents are in
stable storage, so nothing is lost, matching the paper's reliability claim).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.net.message import Envelope
from repro.types import ProcessId


@dataclass
class SpoolerReplica:
    """One replica of a process's spool, hosted on ``host`` process."""

    host: ProcessId
    envelopes: List[Envelope] = field(default_factory=list)
    #: tree -> the last decision kind observed for it (bounded by the number
    #: of distinct trees, however often a decision is re-sent).
    decisions: Dict[Any, Any] = field(default_factory=dict)

    def spool(self, envelope: Envelope) -> None:
        self.envelopes.append(envelope)

    def observe_decision(self, decision: Any) -> None:
        kind, tree = decision
        self.decisions[tree] = kind


class SpoolerGroup:
    """The replicated spool of a single (possibly failed) process."""

    def __init__(self, owner: ProcessId, hosts: List[ProcessId]):
        self.owner = owner
        self.replicas = [SpoolerReplica(host=h) for h in hosts]

    def spool(self, envelope: Envelope, is_host_alive: Callable[[ProcessId], bool]) -> bool:
        """Record ``envelope`` on all live replicas.

        Returns ``True`` if at least one replica accepted it (i.e. the
        message survives the owner's failure).
        """
        accepted = False
        for replica in self.replicas:
            if is_host_alive(replica.host):
                replica.spool(envelope)
                accepted = True
        return accepted

    def observe_decision(self, decision: Any, is_host_alive: Callable[[ProcessId], bool]) -> None:
        """Record a protocol decision (commit/abort/restart) for rule 3."""
        for replica in self.replicas:
            if is_host_alive(replica.host):
                replica.observe_decision(decision)

    def drain(self, is_host_alive: Callable[[ProcessId], bool]) -> List[Envelope]:
        """Return and clear the spooled envelopes, deduplicated across replicas.

        Only live replicas contribute (a dead replica's spool is temporarily
        unreachable, exactly like the paper's "if all its spoolers fail").
        """
        seen: Dict[int, Envelope] = {}
        for replica in self.replicas:
            if not is_host_alive(replica.host):
                continue
            for envelope in replica.envelopes:
                seen[id(envelope)] = envelope
            replica.envelopes = []
        return list(seen.values())

    def decisions_seen(self, is_host_alive: Callable[[ProcessId], bool]) -> Optional[List[Any]]:
        """The ``(kind, tree)`` verdict per tree recorded by live replicas
        (where they disagree the last replica's wins), or ``None`` if all
        replicas are currently dead (caller must fall back to inquiring all
        processes, per rule 3)."""
        live = [r for r in self.replicas if is_host_alive(r.host)]
        if not live:
            return None
        verdicts: Dict[Any, Any] = {}
        for replica in live:
            verdicts.update(replica.decisions)
        return [(kind, tree) for tree, kind in verdicts.items()]
