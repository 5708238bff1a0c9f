"""Executable checks for the minimality theorems (paper Theorems 3 and 4).

Theorem 3: in an isolated committed checkpointing instance, every
non-initiator participant was *necessary* — swapping its new checkpoint for
its previous committed one would violate C1.

Theorem 4: in an isolated rollback instance, every non-initiator participant
was necessary — had it not rolled back, some undone send would leave it with
a dangling receive.

Both are checked against concrete runs: the trace (through its
:class:`~repro.analysis.index.TraceIndex`) supplies the instance tree and
undo events; the per-process ``committed_history`` supplies the previous
checkpoints' manifests.  ``trace`` arguments accept a
:class:`~repro.sim.trace.Trace` or a ``TraceIndex`` directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set, Tuple

from repro import tracekinds as T
from repro.analysis.index import as_index
from repro.analysis.tree_view import InstanceTree, reconstruct_trees
from repro.errors import ConsistencyViolation
from repro.types import ProcessId, TreeId


def check_checkpoint_minimality(trace, processes: Iterable, tree_id: TreeId) -> None:
    """Theorem 3 for one committed instance.

    For each non-initiator participant ``P_i``: find the checkpoint it
    committed in this instance and its predecessor ``C_i'``.  There must be
    some participant ``P_j`` whose new checkpoint reflects the receipt of a
    message from ``P_i`` that ``C_i'`` does not reflect as sent — i.e.
    reverting ``P_i`` alone breaks C1, so forcing it was necessary.
    """
    procs = {p.node_id: p for p in processes}
    tree = reconstruct_trees(trace).get(tree_id)
    if tree is None:
        raise ConsistencyViolation("T3", f"no reconstructed tree for {tree_id}")
    if tree.decided != "commit":
        raise ConsistencyViolation("T3", f"{tree_id} did not commit (got {tree.decided})")

    new_ckpts = _instance_checkpoints(procs, tree)
    for pid in sorted(tree.participants):
        history = procs[pid].committed_history
        new_record = new_ckpts[pid]
        older = [r for r in history if r.seq < new_record.seq]
        if not older:
            raise ConsistencyViolation("T3", f"P{pid} has no previous committed checkpoint")
        prev = older[-1]
        prev_sent: Set[int] = {idx for _dst, idx in prev.meta.get("sent", [])}
        justified = False
        for other_pid, other_record in new_ckpts.items():
            if other_pid == pid:
                continue
            for src, idx in other_record.meta.get("recv", []):
                if src == pid and idx not in prev_sent:
                    justified = True
                    break
            if justified:
                break
        if not justified:
            raise ConsistencyViolation(
                "T3",
                f"P{pid}'s participation in {tree_id} was unnecessary: no "
                f"participant's new checkpoint depends on a message P{pid} sent "
                f"after its previous checkpoint (seq {prev.seq})",
            )


def _instance_checkpoints(procs: Dict[ProcessId, object], tree: InstanceTree) -> Dict[ProcessId, object]:
    """Each participant's checkpoint committed for this instance.

    With isolation (the theorem's precondition) that is simply the newest
    committed checkpoint of each tree member.
    """
    result = {}
    for pid in sorted(tree.nodes):
        history = procs[pid].committed_history
        result[pid] = history[-1]
    return result


def check_rollback_minimality(trace, tree_id: TreeId) -> None:
    """Theorem 4 for one completed rollback instance.

    For each non-initiator participant ``P_j``: some instance participant
    ``P_i`` must have undone a send to ``P_j`` that ``P_j`` had received —
    otherwise ``P_j`` rolled back without cause.
    """
    index = as_index(trace)
    tree = reconstruct_trees(index).get(tree_id)
    if tree is None:
        raise ConsistencyViolation("T4", f"no reconstructed tree for {tree_id}")

    members = tree.nodes
    # Undone sends during this instance, by sender.  The undo events carry
    # no tree stamp (a process may roll back once for several instances), so
    # scope to the instance window: from its start until the last restart.
    undone_to: Dict[ProcessId, Set[Tuple[ProcessId, int]]] = {}
    for event in index.by_kind(T.K_UNDO_SEND):
        if event.pid in members:
            undone_to.setdefault(event.fields["dst"], set()).add(
                (event.pid, event.fields["msg_id"].send_index)
            )
    received: Dict[ProcessId, Set[Tuple[ProcessId, int]]] = {}
    for event in index.by_kind(T.K_RECEIVE):
        received.setdefault(event.pid, set()).add(
            (event.fields["src"], event.fields["msg_id"].send_index)
        )

    for pid in sorted(tree.participants):
        doomed = undone_to.get(pid, set()) & received.get(pid, set())
        if not doomed:
            raise ConsistencyViolation(
                "T4",
                f"P{pid} rolled back in {tree_id} without cause: no instance "
                f"participant undid a message P{pid} had received",
            )
