"""Unit tests for the structured trace."""

from repro import tracekinds as T
from repro.sim.trace import Trace, json_safe


def make_trace():
    tr = Trace()
    tr.record(1.0, T.K_SEND, pid=0, msg_id="m1", dst=1, label=1)
    tr.record(2.0, T.K_RECEIVE, pid=1, msg_id="m1", src=0, label=1)
    tr.record(3.0, T.K_CHKPT_TENTATIVE, pid=1, seq=2, tree="t")
    tr.record(4.0, T.K_CHKPT_COMMIT, pid=1, seq=2, tree="t")
    tr.record(5.0, T.K_CRASH, pid=0)
    return tr


def test_records_are_ordered_and_indexed():
    tr = make_trace()
    assert len(tr) == 5
    assert [e.index for e in tr] == [0, 1, 2, 3, 4]
    assert tr[2].kind == T.K_CHKPT_TENTATIVE


def test_field_attribute_access():
    tr = make_trace()
    assert tr[0].msg_id == "m1"
    assert tr[0].dst == 1


def test_missing_field_raises_attribute_error():
    tr = make_trace()
    try:
        tr[0].nonexistent
        assert False, "expected AttributeError"
    except AttributeError:
        pass


def test_of_kind_filters():
    index = make_trace().index
    assert len(index.by_kind(T.K_SEND)) == 1
    assert len(index.by_kind(T.K_SEND, T.K_RECEIVE)) == 2


def test_for_process_filters():
    index = make_trace().index
    assert len(index.for_process(1)) == 3
    assert len(index.for_process(1, T.K_CHKPT_COMMIT)) == 1


def test_last():
    index = make_trace().index
    assert index.last_of(T.K_CHKPT_COMMIT).seq == 2
    assert index.last_of(T.K_SEND, pid=1) is None


def test_json_safe_renders_ids_readably():
    from repro.types import MessageId, TreeId

    row = json_safe({"msg_id": MessageId(0, 0), "tree": TreeId(1, 0), "time": 2.0,
                     "peers": {2, 1}})
    assert row == {"msg_id": "m(P0#0)", "tree": "T(P1@0)", "time": 2.0, "peers": [1, 2]}
