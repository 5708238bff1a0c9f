"""Trace analysis: happens-before, consistency oracles, minimality, metrics.

Every consumer here reads the trace through
:class:`~repro.analysis.index.TraceIndex`, a query view over the trace's
in-memory record store that catches up on new records when queried and
builds only the events a query returns (see :mod:`repro.analysis.index`).
"""

from repro.analysis.consistency import (
    check_app_states,
    check_c1,
    check_c1_from_trace,
    check_no_dangling_receives,
    check_no_dangling_receives_from_trace,
    check_quiescent,
    check_recovery_line,
    check_recovery_line_from_trace,
)
from repro.analysis.diagram import space_time
from repro.analysis.domino import (
    domino_metrics,
    histories_from_trace,
    recovery_line,
    rollback_distance,
)
from repro.analysis.happens_before import HappensBefore
from repro.analysis.index import ManifestView, TraceIndex, as_index
from repro.analysis.jobs import audit_jobs
from repro.analysis.minimality import (
    check_checkpoint_minimality,
    check_rollback_minimality,
)
from repro.analysis.stats import RunStats, collect
from repro.analysis.tree_view import InstanceTree, reconstruct_trees

__all__ = [
    "HappensBefore",
    "InstanceTree",
    "ManifestView",
    "RunStats",
    "TraceIndex",
    "as_index",
    "audit_jobs",
    "check_app_states",
    "check_c1",
    "check_c1_from_trace",
    "check_checkpoint_minimality",
    "check_no_dangling_receives",
    "check_no_dangling_receives_from_trace",
    "check_quiescent",
    "check_recovery_line",
    "check_recovery_line_from_trace",
    "check_rollback_minimality",
    "collect",
    "domino_metrics",
    "histories_from_trace",
    "reconstruct_trees",
    "recovery_line",
    "rollback_distance",
    "space_time",
]
