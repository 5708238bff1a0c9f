"""Pure helpers: percentiles, trace-derived latencies, span self times.

Nothing here imports ``repro``.  The trace helpers take any iterable of
objects with ``time``, ``kind``, ``pid`` and ``fields`` (a dict), in trace
order — a :class:`repro.sim.trace.TraceEvent` list from an in-memory sink
and a merged JSONL index both qualify — so one definition serves the
simulator, the TCP cluster and the sharded cluster, and the unit tests
feed them synthetic events.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Dict, Iterable, List, Sequence, Tuple

# Trace kinds, spelled as in repro.tracekinds (tests assert they match).
K_INSTANCE_START = "instance_start"
K_INSTANCE_COMMIT = "instance_commit"
K_CHKPT_TENTATIVE = "chkpt_tentative"
K_CHKPT_COMMIT = "chkpt_commit"
K_CHKPT_ABORT = "chkpt_abort"
K_ROLLBACK = "rollback"
K_RECOVER = "recover"
K_CRASH = "crash"
K_JOB_SUBMIT = "job_submit"
K_JOB_UNIT = "job_unit"
K_JOB_DONE = "job_done"
K_SUSPEND_SEND = "suspend_send"
K_RESUME_SEND = "resume_send"
K_SUSPEND_ALL = "suspend_all"
K_RESUME_ALL = "resume_all"


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation; 0.0 when empty.

    Empty input yields 0.0, not an error: a workload with no sample for a
    layer metric (no recovery on a fault-free run) reports 0 for it.
    """
    if not values:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    weight = position - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def sum_of_minima(reps: Sequence[Sequence[float]]) -> float:
    """Sum over slices of each slice's smallest reading across ``reps``.

    Every rep times the same slices of one deterministic run, so the reps
    must agree on how many there are.
    """
    if len({len(rep) for rep in reps}) != 1:
        raise ValueError(f"reps disagree on the slice count: {sorted({len(r) for r in reps})}")
    return float(sum(min(column) for column in zip(*reps)))


# ----------------------------------------------------------------------
# Checkpoint instances
# ----------------------------------------------------------------------

def instance_latencies(
    events: Iterable[Any], window: Tuple[float, float], instance: str = "checkpoint"
) -> List[float]:
    """``instance_start`` -> ``instance_commit`` per tree, in trace time.

    Only trees of kind ``instance`` whose start falls in ``[lo, hi)`` count;
    a tree that never commits contributes nothing (it is counted by the
    commit ratio instead).
    """
    lo, hi = window
    started: Dict[Any, float] = {}
    out: List[float] = []
    for ev in events:
        if ev.kind == K_INSTANCE_START:
            if ev.fields.get("instance") == instance and lo <= ev.time < hi:
                started.setdefault(ev.fields["tree"], ev.time)
        elif ev.kind == K_INSTANCE_COMMIT:
            t0 = started.pop(ev.fields["tree"], None)
            if t0 is not None:
                out.append(ev.time - t0)
    return out


def instance_counts(events: Iterable[Any]) -> Dict[str, int]:
    """Checkpoint instances started / committed and rollbacks performed."""
    started = set()
    committed = set()
    rollbacks = 0
    for ev in events:
        if ev.kind == K_INSTANCE_START and ev.fields.get("instance") == "checkpoint":
            started.add(ev.fields["tree"])
        elif ev.kind == K_INSTANCE_COMMIT and ev.fields["tree"] in started:
            committed.add(ev.fields["tree"])
        elif ev.kind == K_ROLLBACK:
            rollbacks += 1
    return {"started": len(started), "committed": len(committed), "rollbacks": rollbacks}


def tree_sizes(events: Iterable[Any]) -> List[int]:
    """Processes that committed a checkpoint in each checkpoint tree."""
    members: Dict[Any, set] = {}
    for ev in events:
        if ev.kind == K_CHKPT_COMMIT and ev.fields.get("tree") is not None:
            members.setdefault(ev.fields["tree"], set()).add(ev.pid)
    return [len(pids) for pids in members.values()]


def recovery_latencies(events: Iterable[Any]) -> List[float]:
    """``recover`` of a pid -> commit of the rollback instance it then roots."""
    recovered_at: Dict[Any, float] = {}
    rooted: Dict[Any, float] = {}
    out: List[float] = []
    for ev in events:
        if ev.kind == K_RECOVER:
            recovered_at[ev.pid] = ev.time
        elif ev.kind == K_INSTANCE_START and ev.fields.get("instance") == "rollback":
            t0 = recovered_at.pop(ev.pid, None)
            if t0 is not None:
                rooted[ev.fields["tree"]] = t0
        elif ev.kind == K_INSTANCE_COMMIT:
            t0 = rooted.pop(ev.fields["tree"], None)
            if t0 is not None:
                out.append(ev.time - t0)
    return out


def send_blocked_fraction(events: Iterable[Any], pids: int, horizon: float) -> float:
    """Share of process-time during which sends were suspended.

    A process is blocked from ``suspend_send``/``suspend_all`` to the
    matching resume (or to ``horizon`` if it never resumes); nested
    suspensions count once.
    """
    depth: Dict[Any, int] = {}
    since: Dict[Any, float] = {}
    blocked = 0.0
    for ev in events:
        if ev.kind in (K_SUSPEND_SEND, K_SUSPEND_ALL):
            if depth.get(ev.pid, 0) == 0:
                since[ev.pid] = ev.time
            depth[ev.pid] = depth.get(ev.pid, 0) + 1
        elif ev.kind in (K_RESUME_SEND, K_RESUME_ALL):
            if depth.get(ev.pid, 0) > 0:
                depth[ev.pid] -= 1
                if depth[ev.pid] == 0:
                    blocked += ev.time - since.pop(ev.pid)
        elif ev.kind == K_CRASH:
            # A crash loses the volatile suspension with everything else.
            if depth.pop(ev.pid, 0) > 0:
                blocked += ev.time - since.pop(ev.pid)
    for pid, t0 in since.items():
        blocked += max(0.0, horizon - t0)
    total = pids * horizon
    return blocked / total if total > 0 else 0.0


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------

def job_latencies(
    events: Iterable[Any], submitted_before: float
) -> Dict[str, List[float]]:
    """Per-job latencies from the trace alone, identical on every kernel.

    ``done``: first ``job_submit`` -> last ``job_done``.  ``durable``: first
    ``job_submit`` -> first ``chkpt_commit`` at the job's host of a
    checkpoint whose tentative was taken at or after that last
    ``job_done`` (the completion can no longer be rolled back).  Only jobs
    first submitted before ``submitted_before`` count; a job that never
    became durable contributes to neither list.
    """
    submit: Dict[str, float] = {}
    host: Dict[str, Any] = {}
    done_at: Dict[str, Tuple[int, float]] = {}
    # per host: tentatives awaiting a decision, and (tentative position,
    # commit time) of those that committed, in tentative order
    pending: Dict[Any, Dict[Any, int]] = {}
    committed: Dict[Any, List[Tuple[int, float]]] = {}
    for position, ev in enumerate(events):
        kind = ev.kind
        if kind == K_JOB_SUBMIT:
            job = ev.fields["job"]
            if job not in submit:
                submit[job] = ev.time
                host[job] = ev.pid
        elif kind == K_JOB_DONE:
            done_at[ev.fields["job"]] = (position, ev.time)
        elif kind == K_CHKPT_TENTATIVE:
            pending.setdefault(ev.pid, {})[ev.fields["seq"]] = position
        elif kind == K_CHKPT_ABORT:
            pending.get(ev.pid, {}).pop(ev.fields["seq"], None)
        elif kind == K_CHKPT_COMMIT:
            taken = pending.get(ev.pid, {}).pop(ev.fields["seq"], None)
            if taken is not None:
                committed.setdefault(ev.pid, []).append((taken, ev.time))
    for rows in committed.values():
        rows.sort()
    done: List[float] = []
    durable: List[float] = []
    for job, t0 in submit.items():
        if t0 >= submitted_before or job not in done_at:
            continue
        done_pos, done_time = done_at[job]
        rows = committed.get(host[job], [])
        at = bisect.bisect_left(rows, (done_pos, -math.inf))
        if at == len(rows):
            continue
        done.append(done_time - t0)
        durable.append(rows[at][1] - t0)
    return {"done": done, "durable": durable}


def reexecuted_units(events: Iterable[Any]) -> int:
    """Units executed more than once: ``job_unit`` events beyond the first
    for each ``(job, stage, unit)``."""
    seen = set()
    repeats = 0
    for ev in events:
        if ev.kind == K_JOB_UNIT:
            key = (ev.fields["job"], ev.fields["stage"], ev.fields["unit"])
            if key in seen:
                repeats += 1
            else:
                seen.add(key)
    return repeats


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

def self_times(
    names: Sequence[str],
    starts: Sequence[float],
    ends: Sequence[float],
    parents: Sequence[int],
) -> Dict[str, Dict[str, float]]:
    """Per-name call count and self time of a span forest.

    Span ``i`` is ``(names[i], starts[i], ends[i], parents[i])`` with
    ``parents[i]`` the index of the enclosing span or -1; spans are stored
    in opening order, so a child always follows its parent.  A span's self
    time is its duration minus its direct children's durations.
    """
    count = len(starts)
    child_time = [0.0] * count
    out: Dict[str, Dict[str, float]] = {}
    for i in range(count - 1, -1, -1):
        duration = ends[i] - starts[i]
        parent = parents[i]
        if parent >= 0:
            child_time[parent] += duration
        row = out.get(names[i])
        if row is None:
            row = out[names[i]] = {"calls": 0, "self_s": 0.0}
        row["calls"] += 1
        row["self_s"] += duration - child_time[i]
    return out
