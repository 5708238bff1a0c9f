"""Executable forms of the paper's consistency definitions.

The checkers work on the *manifests* each checkpoint stores (which live
sends/receives the snapshotted state reflects) plus the final ledgers.  They
raise :class:`~repro.errors.ConsistencyViolation` with a precise culprit, or
return quietly — tests wrap them in one-line assertions, and the randomized
stress suites use them as oracles.

* :func:`check_c1` — Definition 2: the global checkpoint formed by every
  process's last committed checkpoint has no orphan receive (a message
  recorded as received whose send the sender's checkpoint does not record).
* :func:`check_no_dangling_receives` — Definitions 3/4(ii): at quiescence,
  every live receive corresponds to a live (not undone) send.
* :func:`check_recovery_line` — Definition 4 in full: both of the above.
* :func:`check_app_states` — end-to-end: each application state digest
  matches a replay of exactly the live receives (so protocol bookkeeping and
  application state cannot drift apart).

The ``*_from_trace`` variants run the same definitions against the
:class:`~repro.analysis.index.TraceIndex`'s reconstructed manifests and
ledger shadows instead of live process objects — so the oracles also apply
to a trace loaded from disk long after the run is gone
(:meth:`~repro.analysis.index.TraceIndex.from_jsonl_files`, or the events
``load_jsonl(path) -> (events, truncated_tail_lines)`` returns, fed to a
``TraceIndex``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.index import as_index
from repro.errors import ConsistencyViolation
from repro.tracekinds import K_LEAVE
from repro.types import ProcessId

MsgKey = Tuple[ProcessId, int]  # (sender pid, send index) — globally unique


def departed_pids(trace) -> Set[ProcessId]:
    """Pids that gracefully left the membership during the trace.

    A departed pid's last committed checkpoint is frozen at whatever it
    was before the leave, and the pid will never be restarted — so its
    sends are *settled history*: no rollback can ever unsend them, and a
    survivor's checkpoint reflecting their receipt is not an orphan.  The
    trace-based checkers therefore exclude departed pids from the recovery
    line.
    """
    index = as_index(trace)
    return {e.fields["pid"] if e.pid is None else e.pid for e in index.by_kind(K_LEAVE)}


def check_c1(processes: Iterable) -> None:
    """Definition 2 over the current recovery line.

    ``processes`` are `CheckpointProcess`-like objects exposing ``node_id``
    and a last committed checkpoint with manifests.  For every process
    ``P_j`` and every receive ``(i, idx)`` its checkpoint reflects, ``P_i``'s
    checkpoint must reflect the matching send — otherwise restarting from
    the line would materialise a message that was never sent.
    """
    procs = {p.node_id: p for p in processes}
    sent_by: Dict[ProcessId, Set[int]] = {}
    for pid, proc in procs.items():
        record = _last_committed(proc)
        sent_by[pid] = {idx for _dst, idx in record.meta.get("sent", [])}
    for pid, proc in procs.items():
        record = _last_committed(proc)
        for src, idx in record.meta.get("recv", []):
            if src == pid:
                continue
            if src in sent_by and idx not in sent_by[src]:
                raise ConsistencyViolation(
                    "C1",
                    f"P{pid}'s checkpoint (seq {record.seq}) reflects receipt of "
                    f"m(P{src}#{idx}) but P{src}'s checkpoint does not reflect sending it",
                )


def check_no_dangling_receives(processes: Iterable) -> None:
    """Definitions 3 / 4(ii) at quiescence.

    Every live receive in every ledger must match a live send in the
    sender's ledger: an undone-send / live-receive pair is exactly the
    "dangling receiving" phenomenon the rollback tree exists to prevent.
    """
    procs = {p.node_id: p for p in processes}
    live_sends: Dict[MsgKey, bool] = {}
    for pid, proc in procs.items():
        for record in proc.ledger.sent:
            live_sends[(pid, record.msg_id.send_index)] = not record.undone
    for pid, proc in procs.items():
        for record in proc.ledger.live_receives():
            key = (record.src, record.msg_id.send_index)
            if key in live_sends and not live_sends[key]:
                raise ConsistencyViolation(
                    "C2",
                    f"dangling receive at P{pid}: m(P{key[0]}#{key[1]}) was undone "
                    f"by its sender but the receive survives",
                )


def check_recovery_line(processes: Iterable) -> None:
    """Definition 4: the full consistent-global-state check."""
    processes = list(processes)
    check_c1(processes)
    check_no_dangling_receives(processes)


def check_c1_from_trace(trace, pids: Optional[Iterable[ProcessId]] = None) -> None:
    """Definition 2, evaluated from the trace alone.

    Same check as :func:`check_c1`, but the recovery line is the
    :class:`~repro.analysis.index.TraceIndex`'s reconstructed last committed
    manifests rather than the processes' stored checkpoints.  ``trace`` may
    be a live :class:`~repro.sim.trace.Trace` or a ``TraceIndex`` built from
    a reloaded jsonl stream.
    """
    index = as_index(trace)
    departed = departed_pids(index)
    members = sorted(pids) if pids is not None else index.pids()
    members = [pid for pid in members if pid not in departed]
    sent_by: Dict[ProcessId, Set[int]] = {}
    for pid in members:
        view = index.last_committed_manifest(pid)
        sent_by[pid] = {idx for _dst, idx in view.sent}
    for pid in members:
        view = index.last_committed_manifest(pid)
        for src, idx in sorted(view.recv):
            if src == pid:
                continue
            if src in sent_by and idx not in sent_by[src]:
                raise ConsistencyViolation(
                    "C1",
                    f"P{pid}'s checkpoint (seq {view.seq}) reflects receipt of "
                    f"m(P{src}#{idx}) but P{src}'s checkpoint does not reflect sending it",
                )


def check_no_dangling_receives_from_trace(
    trace, pids: Optional[Iterable[ProcessId]] = None
) -> None:
    """Definitions 3 / 4(ii), evaluated from the trace alone.

    Uses the index's ledger shadow (sends/receives with undo events applied)
    in place of the live process ledgers.
    """
    index = as_index(trace)
    departed = departed_pids(index)
    members = sorted(pids) if pids is not None else index.pids()
    members = [pid for pid in members if pid not in departed]
    for pid in members:
        for src, idx in index.live_receives(pid):
            if index.send_is_live(src, idx) is False:
                raise ConsistencyViolation(
                    "C2",
                    f"dangling receive at P{pid}: m(P{src}#{idx}) was undone "
                    f"by its sender but the receive survives",
                )


def check_recovery_line_from_trace(
    trace, pids: Optional[Iterable[ProcessId]] = None
) -> None:
    """Definition 4 from the trace alone: both trace-based checks."""
    check_c1_from_trace(trace, pids)
    check_no_dangling_receives_from_trace(trace, pids)


def check_app_states(processes: Iterable) -> None:
    """End-to-end oracle for `CounterApp`-hosted processes at quiescence.

    The app's ``consumed`` counter must equal the number of live receives in
    the ledger: if a rollback restored the app but not the ledger (or vice
    versa) they diverge.  Only meaningful when the run has fully quiesced
    (no suspended process, no in-flight rollback).
    """
    for proc in processes:
        live = len(proc.ledger.live_receives())
        consumed = getattr(proc.app, "consumed", None)
        if consumed is not None and consumed != live:
            raise ConsistencyViolation(
                "state",
                f"P{proc.node_id}: app consumed {consumed} messages but ledger "
                f"has {live} live receives",
            )


def check_quiescent(processes: Iterable) -> None:
    """Every process resumed: no suspensions, no open instances.

    Used by tests as the precondition for the quiescence-only checkers and
    as the Theorem 1 (termination) assertion itself.
    """
    for proc in processes:
        if proc.crashed:
            continue
        problems: List[str] = []
        if proc.send_suspended:
            problems.append("send suspended")
        if proc.comm_suspended:
            problems.append("communication suspended")
        if proc.roll_restart_set:
            problems.append(f"roll_restart_set={proc.roll_restart_set}")
        if proc.chkpt_commit_set:
            problems.append(f"chkpt_commit_set={proc.chkpt_commit_set}")
        if problems:
            raise ConsistencyViolation(
                "termination", f"P{proc.node_id} did not quiesce: {', '.join(problems)}"
            )


def _last_committed(proc):
    """Last committed checkpoint of a process."""
    return proc.store.oldchkpt
