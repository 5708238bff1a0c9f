"""Message-label and interval bookkeeping (paper Sections 2 and 3).

Checkpoints and rollback points of a process are numbered sequentially by the
counter ``n_i``; a normal message sent while the counter is ``n`` carries
label ``n`` (it was sent within the interval ``[n, n+1]``).  All of the
algorithm's "who must join my tree" decisions reduce to queries over two logs
kept here:

* the **receive log** — for each received normal message: sender, label, and
  the receiver-side interval it arrived in (the value of ``n_i`` at receive
  time).  ``max_ij``, "the maximum label of the messages sent from P_i and
  received within the interval [seqof(C_j)-1, seqof(C_j)]", is a query over
  this log.
* the **send log** — for each sent normal message: destination and label.
  The potential roll-children of a rollback and the ``undo_seq`` it
  advertises are queries over this log.

Rollbacks never delete log entries; they flip an ``undone`` flag.  Labels are
monotone (the counter only ever increases), so an undone message's label is
never reused — the property that makes the discard filter for in-transit
undone messages exact.

Two invariants keep every query proportional to its answer, not to how long
the process has run:

* **The logs are sorted by construction.**  ``n_i`` only increases, so
  ``sent`` is ordered by ``label`` and ``received`` by ``interval``.  A plain
  int list runs beside each log and every query is a ``bisect`` into it plus
  a scan of the matching slice.
* **The manifests are maintained, not rebuilt.**  The sorted keys of the live
  sends and live receives (what a checkpoint's ``meta`` records) are updated
  where a record is logged and where it is undone.  ``undone`` is written
  only by :meth:`LabelLedger.undo_for_rollback`; anything else flipping it
  would leave the manifests stale.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ProtocolError
from repro.types import Label, MessageId, ProcessId, Seq


@dataclass
class SentRecord:
    """One normal-message send: ``msg_id`` to ``dst`` with ``label``.

    ``undone_by`` records, for an undone send, the rollback that undid it
    (tree id, undo_seq, undone_upto) — used to re-issue the rollback notice
    when a checkpoint request references an already-undone message (see
    ``ChkptProtocolMixin._on_chkpt_req``).
    """

    msg_id: MessageId
    dst: ProcessId
    label: Label
    undone: bool = False
    undone_by: Optional[tuple] = None


@dataclass
class ReceivedRecord:
    """One normal-message receive.

    ``interval`` is the receiver's counter value at receive time: the message
    was received within the receiver's interval ``[interval, interval + 1]``.
    """

    msg_id: MessageId
    src: ProcessId
    label: Label
    interval: Seq
    undone: bool = False


class LabelLedger:
    """Send/receive logs plus the interval counter ``n_i`` for one process."""

    def __init__(self, pid: ProcessId) -> None:
        self.pid = pid
        self.n: Seq = 0
        self.sent: List[SentRecord] = []
        self.received: List[ReceivedRecord] = []
        # Sort keys of the two logs, index for index: sent[i].label and
        # received[i].interval.
        self._sent_labels: List[Label] = []
        self._received_intervals: List[Seq] = []
        # Per sender, its receives ordered by label (arrival order is not
        # label order on a non-FIFO channel) beside their labels.
        self._received_from: Dict[ProcessId, Tuple[List[Label], List[ReceivedRecord]]] = {}
        #: Sorted ``(dst, send_index)`` of every live send: the "sent"
        #: manifest of a checkpoint taken now.  Read-only for callers.
        self.live_sent_keys: List[Tuple[ProcessId, int]] = []
        #: Sorted ``(src, send_index)`` of every live receive ("recv").
        self.live_received_keys: List[Tuple[ProcessId, int]] = []
        # Discard filters: per sender, label ranges [lo, hi] of undone
        # in-transit messages that must be dropped on arrival.
        self._discard: Dict[ProcessId, List[Tuple[Label, Label]]] = {}

    # ------------------------------------------------------------------
    # Counter
    # ------------------------------------------------------------------
    def advance(self) -> Seq:
        """``n_i := n_i + 1`` (new checkpoint or rollback point); returns new n."""
        self.n += 1
        return self.n

    # ------------------------------------------------------------------
    # Normal-message recording
    # ------------------------------------------------------------------
    def record_send(self, msg_id: MessageId, dst: ProcessId) -> Label:
        """Log an outgoing message; returns the label it must carry (= n)."""
        label = self.n
        self.sent.append(SentRecord(msg_id=msg_id, dst=dst, label=label))
        self._sent_labels.append(label)
        insort(self.live_sent_keys, (dst, msg_id.send_index))
        return label

    def record_receive(self, msg_id: MessageId, src: ProcessId, label: Label) -> ReceivedRecord:
        """Log an accepted incoming message in the current interval."""
        record = ReceivedRecord(msg_id=msg_id, src=src, label=label, interval=self.n)
        self.received.append(record)
        self._received_intervals.append(record.interval)
        by_label = self._received_from.get(src)
        if by_label is None:
            by_label = self._received_from[src] = ([], [])
        at = bisect_right(by_label[0], label)
        by_label[0].insert(at, label)
        by_label[1].insert(at, record)
        insort(self.live_received_keys, (src, msg_id.send_index))
        return record

    # ------------------------------------------------------------------
    # Checkpoint-tree queries (Section 3.1)
    # ------------------------------------------------------------------
    def max_label_from(self, src: ProcessId, interval: Seq) -> Label:
        """``max_ij``: max label of live messages from ``src`` received within
        ``[interval, interval + 1]``; 0 if none (paper's convention)."""
        return self.senders_in_range(interval, interval).get(src, 0)

    def senders_in_interval(self, interval: Seq) -> Dict[ProcessId, Label]:
        """All senders with live receives in the interval, with their max label.

        These are the *potential chkpt-children* of a checkpoint whose
        sequence number is ``interval + 1``.
        """
        return self.senders_in_range(interval, interval)

    def senders_in_range(self, first: Seq, last: Seq) -> Dict[ProcessId, Label]:
        """Senders of live receives in intervals ``first..last``, with max label.

        The Section 3.5.3 extension recruits over every interval not yet
        certified by a committed checkpoint, so a commit can soundly promote
        the whole pending prefix.
        """
        intervals = self._received_intervals
        result: Dict[ProcessId, Label] = {}
        for r in self.received[bisect_left(intervals, first):bisect_right(intervals, last)]:
            if not r.undone and r.label > result.get(r.src, 0):
                result[r.src] = r.label
        return result

    def _sent_with_label(self, label: Label) -> List[SentRecord]:
        labels = self._sent_labels
        return self.sent[bisect_left(labels, label):bisect_right(labels, label)]

    def has_undone_send_with_label(self, dst: ProcessId, label: Label) -> bool:
        """True if any outgoing message to ``dst`` with exactly ``label`` was
        undone — the third clause of the true-chkpt-child test."""
        for r in self._sent_with_label(label):
            if r.undone and r.dst == dst:
                return True
        return False

    def undone_send_info(self, dst: ProcessId, label: Label) -> Optional[tuple]:
        """The ``undone_by`` notice of an undone send to ``dst`` with ``label``."""
        for r in self._sent_with_label(label):
            if r.dst == dst and r.undone and r.undone_by is not None:
                return r.undone_by
        return None

    def live_receivers_since(self, label: Label) -> Set[ProcessId]:
        """Destinations of the live sends labelled ``label`` or later."""
        return {
            r.dst
            for r in self.sent[bisect_left(self._sent_labels, label):]
            if not r.undone
        }

    # ------------------------------------------------------------------
    # Rollback (Sections 3.2 and 3.5.2)
    # ------------------------------------------------------------------
    def undo_for_rollback(self, restored_seq: Seq) -> Tuple[List[SentRecord], List[ReceivedRecord]]:
        """Undo the effects of everything after the checkpoint ``restored_seq``.

        Marks undone every live send with ``label >= restored_seq`` (sent in
        or after the restored checkpoint's first interval) and every live
        receive with ``interval >= restored_seq``.  Returns the newly undone
        records so the caller can derive ``undo_seq`` and the potential
        roll-children, and emit trace records.
        """
        undone_sends: List[SentRecord] = []
        keys = self.live_sent_keys
        for r in self.sent[bisect_left(self._sent_labels, restored_seq):]:
            if not r.undone:
                r.undone = True
                del keys[bisect_left(keys, (r.dst, r.msg_id.send_index))]
                undone_sends.append(r)
        undone_receives: List[ReceivedRecord] = []
        keys = self.live_received_keys
        for r in self.received[bisect_left(self._received_intervals, restored_seq):]:
            if not r.undone:
                r.undone = True
                del keys[bisect_left(keys, (r.src, r.msg_id.send_index))]
                undone_receives.append(r)
        return undone_sends, undone_receives

    @staticmethod
    def undo_summary(undone_sends: List[SentRecord], fallback: Label) -> Tuple[Label, Set[ProcessId]]:
        """Derive ``(bad_seq, potential roll-children)`` from undone sends.

        ``bad_seq`` is the minimum label among the newly undone messages —
        "the minimum label of the messages that have just been undone by the
        sender" (paper's comment on b6).  When nothing was undone there are
        no potential children and ``bad_seq`` falls back to the paper's
        ``n_i`` value (it is never sent anywhere in that case).
        """
        if not undone_sends:
            return fallback, set()
        bad_seq = min(r.label for r in undone_sends)
        children = {r.dst for r in undone_sends}
        return bad_seq, children

    def earliest_doomed_interval(self, src: ProcessId, undo_seq: Label) -> Optional[Seq]:
        """The earliest interval holding a live receive from ``src`` with
        label >= ``undo_seq``; ``None`` when there is no such receive.

        Not ``None`` is the true-roll-child test; the interval picks the
        checkpoint the child must restore.
        """
        labels, records = self._received_from.get(src, ((), ()))
        return min(
            (r.interval for r in records[bisect_left(labels, undo_seq):] if not r.undone),
            default=None,
        )

    def earliest_undone_label_to(self, dst: ProcessId) -> Optional[Label]:
        """The minimum label of the undone sends to ``dst``; ``None`` if none."""
        # ``sent`` is in label order, so the first hit is the minimum.
        return next((r.label for r in self.sent if r.undone and r.dst == dst), None)

    # ------------------------------------------------------------------
    # Discard filters for in-transit undone messages
    # ------------------------------------------------------------------
    def install_discard_filter(self, src: ProcessId, lo: Label, hi: Label) -> None:
        """Discard future normal messages from ``src`` with label in [lo, hi]."""
        if lo > hi:
            raise ProtocolError(f"bad discard range [{lo}, {hi}]")
        self._discard.setdefault(src, []).append((lo, hi))

    def should_discard(self, src: ProcessId, label: Label) -> bool:
        """True if an arriving message matches an installed discard filter."""
        return any(lo <= label <= hi for lo, hi in self._discard.get(src, []))

    # ------------------------------------------------------------------
    # Introspection (used by analysis and tests)
    # ------------------------------------------------------------------
    def live_receives(self) -> List[ReceivedRecord]:
        return [r for r in self.received if not r.undone]

    def live_sends(self) -> List[SentRecord]:
        return [r for r in self.sent if not r.undone]

    def snapshot_counts(self) -> Dict[str, int]:
        """Cheap summary for debugging and stats."""
        return {
            "n": self.n,
            "sent": len(self.sent),
            "received": len(self.received),
            "sent_undone": len(self.sent) - len(self.live_sent_keys),
            "received_undone": len(self.received) - len(self.live_received_keys),
        }
