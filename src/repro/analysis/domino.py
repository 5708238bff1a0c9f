"""Domino-effect analysis for uncoordinated checkpointing (paper Section 1).

The introduction motivates coordinated checkpointing with the domino effect
[17, 18]: with independent checkpoints, one rollback can cascade arbitrarily
far because each discarded send orphans receives that sit *before* other
processes' checkpoints, forcing them to earlier checkpoints, and so on.

:func:`recovery_line` computes the maximal consistent recovery line for a
set of processes with checkpoint histories, by the classic fixpoint
iteration; :func:`rollback_distance` quantifies how far each process was
dragged back.  The E-DOMINO experiment runs these against the
``uncoordinated`` baseline and against the Leu-Bhargava processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.index import as_index
from repro.types import ProcessId

MsgKey = Tuple[ProcessId, int]


@dataclass
class CheckpointView:
    """Analysis view of one checkpoint: its manifests and position."""

    seq: int
    recv: Set[MsgKey]
    sent: Set[MsgKey]


def views_from_history(proc) -> List[CheckpointView]:
    """Build :class:`CheckpointView` rows from a process's committed history."""
    views = []
    for record in proc.committed_history:
        views.append(
            CheckpointView(
                seq=record.seq,
                recv={(s, i) for s, i in record.meta.get("recv", [])},
                sent={(proc.node_id, i) for _dst, i in record.meta.get("sent", [])},
            )
        )
    return views


def histories_from_trace(
    trace, pids: Optional[Iterable[ProcessId]] = None
) -> Dict[ProcessId, List[CheckpointView]]:
    """Checkpoint histories from the trace's reconstructed manifests.

    Equivalent to ``{p.node_id: views_from_history(p) for p in processes}``
    but sourced from the :class:`~repro.analysis.index.TraceIndex`'s
    manifest shadow, so the fixpoint runs on traces reloaded from disk.
    ``ManifestView.sent`` keys are ``(dst, idx)``; the domino fixpoint keys
    sends by *sender*, so they are re-keyed here exactly as
    :func:`views_from_history` does.
    """
    index = as_index(trace)
    members = sorted(pids) if pids is not None else index.pids()
    histories: Dict[ProcessId, List[CheckpointView]] = {}
    for pid in members:
        histories[pid] = [
            CheckpointView(
                seq=view.seq,
                recv=set(view.recv),
                sent={(pid, idx) for _dst, idx in view.sent},
            )
            for view in index.committed_manifests(pid)
        ]
    return histories


def recovery_line(
    histories: Dict[ProcessId, List[CheckpointView]],
    start: Dict[ProcessId, int],
) -> Dict[ProcessId, int]:
    """Maximal consistent recovery line at or below ``start``.

    ``start`` maps each process to the index (into its history) of the
    checkpoint it initially restores.  The fixpoint repeatedly demotes any
    process whose chosen checkpoint reflects a receive that some *other*
    process's chosen checkpoint no longer reflects as sent (an orphan), until
    the line is consistent.  Index 0 (the birth checkpoint) is always
    consistent, so termination is guaranteed.
    """
    line = dict(start)
    changed = True
    while changed:
        changed = False
        sent_union: Dict[ProcessId, Set[MsgKey]] = {
            pid: histories[pid][line[pid]].sent for pid in line
        }
        for pid in sorted(line):
            view = histories[pid][line[pid]]
            for src, idx in view.recv:
                if src == pid or src not in line:
                    continue
                if (src, idx) not in sent_union[src]:
                    if line[pid] == 0:
                        continue  # birth checkpoint reflects nothing; safe
                    line[pid] -= 1
                    changed = True
                    break
    return line


def rollback_distance(
    histories: Dict[ProcessId, List[CheckpointView]],
    start: Dict[ProcessId, int],
    line: Dict[ProcessId, int],
) -> Dict[ProcessId, int]:
    """Checkpoints lost per process: ``start index - final line index``."""
    return {pid: start[pid] - line[pid] for pid in start}


def domino_metrics(processes: Iterable, initiator: ProcessId) -> Dict[str, float]:
    """End-to-end domino measurement for a finished uncoordinated run.

    The ``initiator`` rolls back to its latest checkpoint; everyone else
    starts at theirs; the fixpoint tells us where the system actually lands.
    Returns the mean/max rollback distance and how many processes moved.
    """
    histories = {p.node_id: views_from_history(p) for p in processes}
    start = {pid: len(h) - 1 for pid, h in histories.items()}
    line = recovery_line(histories, start)
    distances = rollback_distance(histories, start, line)
    moved = [pid for pid, d in distances.items() if d > 0 and pid != initiator]
    values = list(distances.values())
    return {
        "mean_distance": sum(values) / len(values) if values else 0.0,
        "max_distance": max(values) if values else 0,
        "processes_dragged": len(moved),
        "line": {pid: histories[pid][idx].seq for pid, idx in line.items()},
    }
