"""Model test: ``LabelLedger`` against a brute-force reference.

The reference keeps one flat list per log and answers every query with the
linear definition (a scan of the whole log, ``sorted`` for the manifests).
It shares no code with :mod:`repro.core.labels` on purpose: an oracle that
imported the ledger would agree with it by construction.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labels import LabelLedger
from repro.types import MessageId

PEERS = (1, 2, 3)
MAX_SEQ = 8


class ReferenceLedger:
    """The linear definitions, over plain dict records."""

    def __init__(self):
        self.n = 1
        self.sent = []
        self.received = []

    def advance(self):
        self.n += 1

    def record_send(self, index, dst):
        self.sent.append(
            {"index": index, "dst": dst, "label": self.n, "undone": False, "undone_by": None}
        )

    def record_receive(self, index, src, label):
        self.received.append(
            {"index": index, "src": src, "label": label, "interval": self.n, "undone": False}
        )

    def undo_for_rollback(self, restored_seq):
        sends = [r for r in self.sent if not r["undone"] and r["label"] >= restored_seq]
        receives = [
            r for r in self.received if not r["undone"] and r["interval"] >= restored_seq
        ]
        for r in sends + receives:
            r["undone"] = True
        return sends, receives

    def senders_in_range(self, first, last):
        result = {}
        for r in self.received:
            if first <= r["interval"] <= last and not r["undone"]:
                result[r["src"]] = max(result.get(r["src"], 0), r["label"])
        return result

    def has_undone_send_with_label(self, dst, label):
        return any(r["undone"] for r in self.sent if r["dst"] == dst and r["label"] == label)

    def undone_send_info(self, dst, label):
        for r in self.sent:
            if r["dst"] == dst and r["label"] == label and r["undone"] and r["undone_by"]:
                return r["undone_by"]
        return None

    def live_receivers_since(self, label):
        return {r["dst"] for r in self.sent if not r["undone"] and r["label"] >= label}

    def earliest_doomed_interval(self, src, undo_seq):
        doomed = [
            r["interval"]
            for r in self.received
            if not r["undone"] and r["src"] == src and r["label"] >= undo_seq
        ]
        return min(doomed) if doomed else None

    def earliest_undone_label_to(self, dst):
        labels = [r["label"] for r in self.sent if r["undone"] and r["dst"] == dst]
        return min(labels) if labels else None

    def sent_manifest(self):
        return sorted((r["dst"], r["index"]) for r in self.sent if not r["undone"])

    def received_manifest(self):
        return sorted((r["src"], r["index"]) for r in self.received if not r["undone"])


def assert_agree(led, ref):
    assert led.n == ref.n
    assert [(r.msg_id.send_index, r.undone, r.undone_by) for r in led.sent] == [
        (r["index"], r["undone"], r["undone_by"]) for r in ref.sent
    ]
    assert [(r.msg_id.send_index, r.interval, r.undone) for r in led.received] == [
        (r["index"], r["interval"], r["undone"]) for r in ref.received
    ]
    assert led.live_sent_keys == ref.sent_manifest()
    assert led.live_received_keys == ref.received_manifest()
    seqs = range(0, ref.n + 2)
    for first in seqs:
        for last in seqs:
            assert led.senders_in_range(first, last) == ref.senders_in_range(first, last)
        in_interval = ref.senders_in_range(first, first)
        assert led.senders_in_interval(first) == in_interval
        assert led.live_receivers_since(first) == ref.live_receivers_since(first)
    for peer in PEERS + (9,):  # 9: a peer never heard from
        assert led.earliest_undone_label_to(peer) == ref.earliest_undone_label_to(peer)
        for label in range(0, max(MAX_SEQ, ref.n) + 2):
            assert led.has_undone_send_with_label(peer, label) == (
                ref.has_undone_send_with_label(peer, label)
            )
            assert led.undone_send_info(peer, label) == ref.undone_send_info(peer, label)
            assert led.earliest_doomed_interval(peer, label) == (
                ref.earliest_doomed_interval(peer, label)
            )
        for interval in seqs:
            assert led.max_label_from(peer, interval) == (
                ref.senders_in_range(interval, interval).get(peer, 0)
            )


ops = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.sampled_from(PEERS)),
        # A receive carries any label its sender may have reached: labels
        # from one sender arrive out of order (non-FIFO channels).
        st.tuples(st.just("recv"), st.sampled_from(PEERS), st.integers(1, MAX_SEQ)),
        st.tuples(st.just("advance")),
        # Rollback to any depth 1..n+1 (drawn modulo the counter), so the
        # same depth twice, deeper ones later and no-ops all occur.
        st.tuples(st.just("undo"), st.integers(0, 1000)),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(ops)
def test_ledger_agrees_with_linear_reference(sequence):
    led, ref = LabelLedger(0), ReferenceLedger()
    led.n = 1
    rollbacks = 0
    for index, op in enumerate(sequence):
        if op[0] == "send":
            led.record_send(MessageId(0, index), op[1])
            ref.record_send(index, op[1])
        elif op[0] == "recv":
            led.record_receive(MessageId(op[1], index), op[1], op[2])
            ref.record_receive(index, op[1], op[2])
        elif op[0] == "advance":
            led.advance()
            ref.advance()
        else:
            restored = 1 + op[1] % (led.n + 1)
            sends, receives = led.undo_for_rollback(restored)
            ref_sends, ref_receives = ref.undo_for_rollback(restored)
            assert [r.msg_id.send_index for r in sends] == [r["index"] for r in ref_sends]
            assert [r.msg_id.send_index for r in receives] == [r["index"] for r in ref_receives]
            # What ``_perform_rollback`` stamps on the sends it just undid.
            rollbacks += 1
            bad_seq = min((r.label for r in sends), default=led.n)
            notice = (f"tree-{rollbacks}", bad_seq, led.n)
            for record, ref_record in zip(sends, ref_sends):
                record.undone_by = ref_record["undone_by"] = notice
        assert_agree(led, ref)
