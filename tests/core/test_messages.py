"""Unit tests for the control-message vocabulary."""

import dataclasses

import pytest

from repro.core import messages as M
from repro.priorities import PRIORITY_CHECKPOINT, PRIORITY_NORMAL, PRIORITY_ROLLBACK
from repro.types import TreeId

T1 = TreeId(0, 0)


def test_rollback_messages_have_highest_priority():
    """Paper: roll_initiation/roll_request_propagation have the highest
    priority — their inputs must be processed first at equal instants."""
    for cls in (M.RollReq, M.RollAck, M.RollComplete, M.Restart):
        assert cls.priority == PRIORITY_ROLLBACK
    for cls in (M.ChkptReq, M.ChkptAck, M.ReadyToCommit, M.Commit, M.Abort):
        assert cls.priority == PRIORITY_CHECKPOINT
    assert M.NormalBody.priority == PRIORITY_NORMAL


def test_control_messages_are_frozen():
    req = M.ChkptReq(tree=T1, max_label=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        req.max_label = 4


def test_every_control_kind_is_unique():
    kinds = [cls.kind for cls in M.CONTROL_KINDS]
    assert len(kinds) == len(set(kinds))


def test_roll_req_carries_discard_range():
    req = M.RollReq(tree=T1, undo_seq=3, undone_upto=7)
    assert (req.undo_seq, req.undone_upto) == (3, 7)


def test_chkpt_ack_piggyback_defaults_to_none():
    ack = M.ChkptAck(tree=T1, positive=False)
    assert ack.undone_notice is None
    loaded = M.ChkptAck(tree=T1, positive=False, undone_notice=(T1, 1, 2))
    assert loaded.undone_notice == (T1, 1, 2)


def test_normal_body_defaults():
    body = M.NormalBody(payload="x")
    assert body.markers == ()
    assert body.incarnation == 0


def test_decision_messages():
    inquiry = M.DecisionInquiry(tree=T1, decision_kind="checkpoint")
    reply = M.DecisionReply(tree=T1, decision_kind="checkpoint", decision="commit")
    assert inquiry.kind == "decision_inquiry"
    assert reply.decision == "commit"


def test_tree_id_ordering_and_repr():
    a, b, c = TreeId(0, 1), TreeId(0, 2), TreeId(1, 0)
    assert a < b < c
    assert str(a) == "T(P0@1)"
