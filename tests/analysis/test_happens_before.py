"""Unit tests for vector-clock happens-before analysis."""

from repro import tracekinds as T
from repro.analysis import HappensBefore
from repro.sim.trace import Trace
from repro.types import MessageId


def build_trace():
    """P0 sends m to P1; P1 then sends m2 to P2; P2 acts independently first."""
    tr = Trace()
    m1, m2 = MessageId(0, 0), MessageId(1, 0)
    tr.record(0.5, T.K_CHKPT_TENTATIVE, pid=2, seq=2, tree=None)
    tr.record(1.0, T.K_SEND, pid=0, msg_id=m1, dst=1, label=1)
    tr.record(2.0, T.K_RECEIVE, pid=1, msg_id=m1, src=0, label=1)
    tr.record(3.0, T.K_SEND, pid=1, msg_id=m2, dst=2, label=1)
    tr.record(4.0, T.K_RECEIVE, pid=2, msg_id=m2, src=1, label=1)
    # (local on P2, send m1, receive m1, send m2, receive m2)
    return tr, tuple(tr.events)


def test_local_order():
    tr, (e_local, _, _, _, e_recv2) = build_trace()
    hb = HappensBefore(tr)
    assert hb.happens_before(e_local, e_recv2)
    assert not hb.happens_before(e_recv2, e_local)


def test_send_receive_edge():
    tr, (_, e_send1, e_recv1, _, _) = build_trace()
    hb = HappensBefore(tr)
    assert hb.happens_before(e_send1, e_recv1)
    assert not hb.happens_before(e_recv1, e_send1)


def test_transitivity_across_processes():
    tr, (_, e_send1, _, _, e_recv2) = build_trace()
    hb = HappensBefore(tr)
    assert hb.happens_before(e_send1, e_recv2)


def test_concurrency():
    tr, (e_local, e_send1, e_recv1, _, _) = build_trace()
    hb = HappensBefore(tr)
    # P2's early local event is concurrent with P0's send.
    assert hb.concurrent(e_local, e_send1)
    assert hb.concurrent(e_local, e_recv1)


def test_irreflexive():
    tr, events = build_trace()
    hb = HappensBefore(tr)
    for e in events:
        assert not hb.happens_before(e, e)


def test_find_send_and_receive():
    tr, (_, e_send1, e_recv1, _, _) = build_trace()
    hb = HappensBefore(tr)
    assert hb.find_send(MessageId(0, 0)) is e_send1
    assert hb.find_receive(MessageId(0, 0)) is e_recv1
    assert hb.find_send(MessageId(9, 9)) is None


def test_real_run_hb_matches_message_flow():
    from repro.testing import build_sim

    sim, procs = build_sim(n=3, seed=2)
    sim.scheduler.at(1.0, lambda: procs[0].send_app_message(1, "x"))
    sim.scheduler.at(2.0, lambda: procs[1].send_app_message(2, "y"))
    sim.run()
    hb = HappensBefore(sim.trace)
    sends = sim.trace.index.by_kind(T.K_SEND)
    receives = sim.trace.index.by_kind(T.K_RECEIVE)
    assert hb.happens_before(sends[0], receives[-1])
