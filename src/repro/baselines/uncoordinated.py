"""Uncoordinated (independent) checkpointing — the domino-effect strawman.

Each process checkpoints on its own schedule with no coordination at all.
Cheap in the failure-free case, but a rollback must search for a consistent
recovery line across everyone's checkpoint histories, and the line can
recede arbitrarily far — the *domino effect* [17, 18] that motivates the
paper's coordinated approach (Section 1).

The process keeps every committed checkpoint (an uncoordinated scheme
cannot garbage-collect: any old checkpoint may end up on the recovery
line).  Rollback is evaluated offline by
:func:`repro.analysis.domino.domino_metrics`, which computes the recovery
line exactly; the E-DOMINO experiment compares its rollback distances with
the coordinated algorithms' fixed one-interval distance.
"""

from __future__ import annotations

from typing import Optional

from repro import tracekinds as T
from repro.baselines.base import BaselineProcess
from repro.core.engine import ProtocolEngine
from repro.types import TreeId


class UncoordinatedEngine(ProtocolEngine):
    """Independent local checkpointing; no protocol messages at all."""

    def initiate_checkpoint(self) -> Optional[TreeId]:
        """Take a local checkpoint: no requests, no two-phase commit."""
        if self.crashed:
            return None
        tree_id = self._new_tree_id()
        seq = self.ledger.advance()
        self.store.take_new(seq, self.app.snapshot(), made_at=self.now, **self._ledger_manifest())
        record = self.store.commit_through(seq)
        self.committed_history.append(record)
        self._trace(T.K_INSTANCE_START, tree=tree_id, instance="checkpoint")
        self._trace(T.K_CHKPT_TENTATIVE, seq=seq, tree=tree_id)
        self._trace(T.K_CHKPT_COMMIT, seq=seq, tree=tree_id)
        self._trace(T.K_INSTANCE_COMMIT, tree=tree_id)
        self._reset_checkpoint_timer()
        return tree_id

    def initiate_rollback(self) -> Optional[TreeId]:
        """Restore the last local checkpoint, coordination-free.

        Dangling receives at other processes are *not* repaired — that is
        precisely the failure mode this baseline exists to exhibit.  The
        E-DOMINO experiment computes offline how far the whole system would
        actually have to roll to regain consistency.
        """
        if self.crashed:
            return None
        tree_id = self._new_tree_id()
        target = self.store.oldchkpt
        self.app.restore(target.state)
        undone_sends, undone_receives = self.ledger.undo_for_rollback(target.seq)
        self._trace(T.K_INSTANCE_START, tree=tree_id, instance="rollback")
        self._trace(
            T.K_ROLLBACK, to_seq=target.seq, tree=tree_id, target="oldchkpt",
            undone_sends=len(undone_sends), undone_receives=len(undone_receives),
        )
        for record in undone_sends:
            self._trace(
                T.K_UNDO_SEND, msg_id=record.msg_id, dst=record.dst, label=record.label
            )
        for record in undone_receives:
            self._trace(
                T.K_UNDO_RECEIVE, msg_id=record.msg_id, src=record.src, label=record.label
            )
        self.output_queue.clear()
        self.ledger.advance()
        return tree_id


class UncoordinatedProcess(BaselineProcess):
    """Adapter driving :class:`UncoordinatedEngine`."""

    algorithm_name = "uncoordinated"
    engine_class = UncoordinatedEngine
