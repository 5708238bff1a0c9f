"""Unit tests for the LabelLedger (message labels and interval bookkeeping)."""

import pytest

from repro.core.labels import LabelLedger
from repro.errors import ProtocolError
from repro.types import MessageId


def ledger():
    led = LabelLedger(0)
    led.n = 1  # processes start at interval 1 (paper Fig. 2 numbering)
    return led


def test_sends_carry_current_counter_as_label():
    led = ledger()
    assert led.record_send(MessageId(0, 0), dst=1) == 1
    led.advance()
    assert led.record_send(MessageId(0, 1), dst=1) == 2


def test_figure2_label_sequence():
    """Paper Fig. 2: labels of m, l, x, y, z are 1, 2, 3, 3, 4."""
    led = ledger()
    labels = []
    labels.append(led.record_send(MessageId(0, 0), 1))  # m
    led.advance()  # checkpoint 2
    labels.append(led.record_send(MessageId(0, 1), 1))  # l
    led.advance()  # checkpoint 3
    labels.append(led.record_send(MessageId(0, 2), 1))  # x
    labels.append(led.record_send(MessageId(0, 3), 1))  # y
    led.advance()  # rollback point 4
    labels.append(led.record_send(MessageId(0, 4), 1))  # z
    assert labels == [1, 2, 3, 3, 4]


def test_receives_record_current_interval():
    led = ledger()
    led.record_receive(MessageId(5, 0), src=5, label=3)
    led.advance()
    led.record_receive(MessageId(5, 1), src=5, label=4)
    assert [r.interval for r in led.received] == [1, 2]


def test_max_label_from_per_interval():
    led = ledger()
    led.record_receive(MessageId(5, 0), src=5, label=2)
    led.record_receive(MessageId(5, 1), src=5, label=7)
    led.record_receive(MessageId(6, 0), src=6, label=4)
    assert led.max_label_from(5, interval=1) == 7
    assert led.max_label_from(6, interval=1) == 4
    assert led.max_label_from(5, interval=2) == 0  # sentinel: nothing
    assert led.max_label_from(9, interval=1) == 0


def test_senders_in_interval():
    led = ledger()
    led.record_receive(MessageId(5, 0), src=5, label=2)
    led.record_receive(MessageId(6, 0), src=6, label=9)
    led.advance()
    led.record_receive(MessageId(7, 0), src=7, label=1)
    assert led.senders_in_interval(1) == {5: 2, 6: 9}
    assert led.senders_in_interval(2) == {7: 1}


def test_senders_in_range_spans_intervals():
    led = ledger()
    led.record_receive(MessageId(5, 0), src=5, label=2)
    led.advance()
    led.record_receive(MessageId(6, 0), src=6, label=9)
    assert led.senders_in_range(1, 2) == {5: 2, 6: 9}
    assert led.senders_in_range(2, 2) == {6: 9}


def test_undo_for_rollback_marks_and_returns():
    led = ledger()
    led.record_send(MessageId(0, 0), 1)        # label 1
    led.record_receive(MessageId(5, 0), 5, 1)  # interval 1
    led.advance()                              # checkpoint seq 2
    led.record_send(MessageId(0, 1), 2)        # label 2
    led.record_receive(MessageId(5, 1), 5, 3)  # interval 2

    sends, receives = led.undo_for_rollback(restored_seq=2)
    assert [r.msg_id.send_index for r in sends] == [1]
    assert [r.msg_id.send_index for r in receives] == [1]
    # Pre-checkpoint records survive.
    assert not led.sent[0].undone
    assert not led.received[0].undone


def test_undo_is_idempotent():
    led = ledger()
    led.record_send(MessageId(0, 0), 1)
    first, _ = led.undo_for_rollback(1)
    second, _ = led.undo_for_rollback(1)
    assert len(first) == 1 and len(second) == 0


def test_undo_summary():
    led = ledger()
    led.advance()  # n=2
    r1 = led.record_send(MessageId(0, 0), 1)
    led.advance()  # n=3
    led.record_send(MessageId(0, 1), 2)
    sends, _ = led.undo_for_rollback(2)
    bad_seq, children = LabelLedger.undo_summary(sends, fallback=99)
    assert bad_seq == 2  # minimum undone label
    assert children == {1, 2}


def test_undo_summary_fallback_when_nothing_undone():
    bad_seq, children = LabelLedger.undo_summary([], fallback=7)
    assert bad_seq == 7 and children == set()


def test_earliest_doomed_interval():
    led = ledger()
    led.record_receive(MessageId(5, 0), 5, label=3)
    led.advance()
    led.record_receive(MessageId(5, 1), 5, label=2)  # non-FIFO: older label, later interval
    led.record_receive(MessageId(5, 2), 5, label=3)
    assert led.earliest_doomed_interval(5, undo_seq=3) == 1
    assert led.earliest_doomed_interval(5, undo_seq=1) == 1
    assert led.earliest_doomed_interval(5, undo_seq=4) is None
    assert led.earliest_doomed_interval(6, undo_seq=1) is None
    led.undo_for_rollback(2)
    assert led.earliest_doomed_interval(5, undo_seq=1) == 1
    led.undo_for_rollback(1)
    assert led.earliest_doomed_interval(5, undo_seq=1) is None


def test_undone_send_queries():
    led = ledger()
    led.record_send(MessageId(0, 0), dst=1)  # label 1
    assert not led.has_undone_send_with_label(1, 1)
    sends, _ = led.undo_for_rollback(1)
    sends[0].undone_by = ("tree", 1, 1)
    assert led.has_undone_send_with_label(1, 1)
    assert led.undone_send_info(1, 1) == ("tree", 1, 1)
    assert led.undone_send_info(2, 1) is None


def test_discard_filters():
    led = ledger()
    led.install_discard_filter(5, lo=3, hi=6)
    assert led.should_discard(5, 3)
    assert led.should_discard(5, 6)
    assert not led.should_discard(5, 7)
    assert not led.should_discard(5, 2)
    assert not led.should_discard(6, 4)


def test_discard_filter_rejects_bad_range():
    led = ledger()
    with pytest.raises(ProtocolError):
        led.install_discard_filter(5, lo=6, hi=3)


def test_live_views_and_counts():
    led = ledger()
    led.record_send(MessageId(0, 0), 1)
    led.record_receive(MessageId(5, 0), 5, 1)
    led.undo_for_rollback(1)
    assert led.live_sends() == []
    assert led.live_receives() == []
    counts = led.snapshot_counts()
    assert counts["sent_undone"] == 1
    assert counts["received_undone"] == 1
