"""Reconstruct checkpoint/rollback trees from a trace.

The figures in the paper draw the virtual trees explicitly; the benchmarks
that reproduce them need to recover the same trees from a run.  A tree edge
parent → child exists exactly when the child answered the parent's request
with a positive acknowledgement, so we pair each ``chkpt_req``/``roll_req``
control send with the matching positive ack.

Reconstruction reads the instance start/commit/abort records and every
``ctrl_send`` through the :class:`~repro.analysis.index.TraceIndex`, so its
cost is O(instance events + control sends): the control sends are most of a
protocol-heavy trace (45% of the ``sim_mixed`` benchmark's records).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro import tracekinds as T
from repro.analysis.index import as_index
from repro.types import ProcessId, TreeId


@dataclass
class InstanceTree:
    """One reconstructed instance: its tree and lifecycle summary."""

    tree: TreeId
    kind: str                       # "checkpoint" | "rollback"
    root: ProcessId
    edges: List[Tuple[ProcessId, ProcessId]] = field(default_factory=list)
    started_at: float = 0.0
    decided: Optional[str] = None   # "commit" | "abort" | "restart" | None

    @property
    def nodes(self) -> Set[ProcessId]:
        members = {self.root}
        for parent, child in self.edges:
            members.add(parent)
            members.add(child)
        return members

    @property
    def participants(self) -> Set[ProcessId]:
        """Processes forced to act beyond the initiator."""
        return self.nodes - {self.root}

    def children_of(self, pid: ProcessId) -> List[ProcessId]:
        return sorted(child for parent, child in self.edges if parent == pid)

    def parent_of(self, pid: ProcessId) -> Optional[ProcessId]:
        for parent, child in self.edges:
            if child == pid:
                return parent
        return None

    def depth(self) -> int:
        """Longest root-to-leaf path length (0 for a lone root)."""
        children: Dict[ProcessId, List[ProcessId]] = {}
        for parent, child in self.edges:
            children.setdefault(parent, []).append(child)

        def walk(node: ProcessId, seen: Set[ProcessId]) -> int:
            best = 0
            for child in children.get(node, []):
                if child not in seen:
                    best = max(best, 1 + walk(child, seen | {child}))
            return best

        return walk(self.root, {self.root})

    def render(self) -> str:
        """ASCII rendering, root at the top (used in EXPERIMENTS.md)."""
        lines: List[str] = []

        def walk(node: ProcessId, prefix: str) -> None:
            lines.append(f"{prefix}P{node}")
            for child in self.children_of(node):
                walk(child, prefix + "  ")

        walk(self.root, "")
        return "\n".join(lines)


def reconstruct_trees(trace) -> Dict[TreeId, InstanceTree]:
    """Rebuild every instance tree touched by the trace.

    ``trace`` may be a :class:`~repro.sim.trace.Trace` or a
    :class:`~repro.analysis.index.TraceIndex`; the instance lifecycle
    records and every control send are visited (O(instance events + control
    sends)).  Also synthesises trees for instances
    joined *without* an explicit ``instance_start`` (child membership): the
    root is the tree id's initiator by definition.
    """
    index = as_index(trace)
    trees: Dict[TreeId, InstanceTree] = {}
    ack_kind = {"chkpt_ack": "checkpoint", "roll_ack": "rollback"}

    lifecycle = index.by_kind(
        T.K_INSTANCE_START, T.K_CTRL_SEND, T.K_INSTANCE_COMMIT, T.K_INSTANCE_ABORT
    )
    for event in lifecycle:
        if event.kind == T.K_INSTANCE_START:
            tree_id = event.fields["tree"]
            trees[tree_id] = InstanceTree(
                tree=tree_id,
                kind=event.fields["instance"],
                root=event.pid,
                started_at=event.time,
            )
        elif event.kind == T.K_CTRL_SEND:
            msg_type = event.fields["msg_type"]
            tree_id = event.fields.get("tree")
            if msg_type in ack_kind and event.fields.get("positive"):
                # A positive ack from child -> parent is exactly one edge.
                if tree_id not in trees:
                    trees[tree_id] = InstanceTree(
                        tree=tree_id, kind=ack_kind[msg_type], root=tree_id.initiator
                    )
                edge = (event.fields["dst"], event.pid)
                if edge not in trees[tree_id].edges:
                    trees[tree_id].edges.append(edge)
        elif event.kind in (T.K_INSTANCE_COMMIT, T.K_INSTANCE_ABORT):
            tree_id = event.fields["tree"]
            if tree_id in trees and trees[tree_id].decided is None:
                trees[tree_id].decided = (
                    "commit" if event.kind == T.K_INSTANCE_COMMIT else "abort"
                )

    for tree in trees.values():
        tree.edges.sort()
    return trees
