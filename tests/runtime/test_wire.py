"""Wire codec: every protocol body round-trips losslessly; frames are sane."""

import asyncio
import hashlib
import struct

import pytest
from test_wire_fuzz import CONTROL_CORPUS, RICH_CORPUS  # sibling module: the fuzz corpus

from repro.core import messages as M
from repro.errors import WireError
from repro.net.delay import FixedDelay
from repro.net.message import CONTROL, NORMAL, Envelope, control, normal
from repro.runtime import AsyncRuntime, TcpTransport, wire
from repro.sim.node import Node
from repro.types import MessageId, TreeId

T1 = TreeId(2, 5)
T2 = TreeId(0, 1)

BODIES = [
    M.NormalBody(payload="hello", markers=(T1, T2), marker_seq=3, incarnation=1),
    M.NormalBody(),
    M.ChkptReq(tree=T1, max_label=7),
    M.ChkptAck(tree=T1, positive=True),
    M.ChkptAck(tree=T1, positive=False, undone_notice=(T2, 3, 5)),
    M.ReadyToCommit(tree=T1),
    M.Commit(tree=T1),
    M.Abort(tree=T1),
    M.RollReq(tree=T2, undo_seq=2, undone_upto=4),
    M.RollAck(tree=T2, positive=False),
    M.RollComplete(tree=T2),
    M.Restart(tree=T2),
    M.DecisionInquiry(tree=T1, decision_kind="checkpoint"),
    M.DecisionReply(tree=T1, decision_kind="rollback", decision="restart"),
    M.DecisionReply(tree=T1, decision_kind="checkpoint", decision=None),
]


@pytest.mark.parametrize("body", BODIES, ids=lambda b: type(b).__name__)
def test_body_roundtrip(body):
    if isinstance(body, M.NormalBody):
        env = normal(0, 1, MessageId(0, 4), label=3, body=body)
    else:
        env = control(0, 1, body)
    decoded = wire.loads_frame(wire.dumps_frame(env)[wire.HEADER_SIZE:]).body
    assert decoded == body
    assert type(decoded) is type(body)


def test_every_control_kind_is_registered():
    for cls in M.CONTROL_KINDS:
        assert wire.BODY_REGISTRY[cls.kind] is cls
    assert wire.BODY_REGISTRY[wire.NORMAL_KIND] is M.NormalBody


def test_envelope_roundtrip_normal():
    env = normal(0, 1, MessageId(0, 4), label=3, body=M.NormalBody(payload={"k": [1, 2]}))
    env.send_time = 12.5
    back = wire.roundtrip(env)
    assert back.src == 0 and back.dst == 1
    assert back.category == env.category
    assert back.msg_id == MessageId(0, 4)
    assert back.label == 3
    assert back.send_time == 12.5
    assert back.body == env.body


def test_envelope_roundtrip_control():
    env = control(2, 3, M.ChkptReq(tree=T1, max_label=9))
    back = wire.roundtrip(env)
    assert back.body == env.body
    assert back.msg_id is None and back.label is None


def _payload(env):
    return wire.dumps_frame(env)[wire.HEADER_SIZE:]


def test_unregistered_body_raises():
    class Rogue:
        kind = "rogue"

    with pytest.raises(WireError, match="unregistered body type 'Rogue'"):
        wire.dumps_frame(control(0, 1, Rogue()))
    # Byte 1 of the payload is the body-kind code; 0xEE names no kind.
    blob = bytearray(_payload(control(0, 1, M.Commit(tree=T1))))
    blob[1] = 0xEE
    with pytest.raises(WireError, match="unknown binary body kind code 238"):
        wire.loads_frame(bytes(blob))


def test_malformed_body_fields_raise():
    blob = _payload(control(0, 1, M.ChkptReq(tree=T1, max_label=7)))
    # The body's last field cut off mid-value, and a value tag nobody defined.
    with pytest.raises(WireError, match="truncated"):
        wire.loads_frame(blob[:-1])
    with pytest.raises(WireError, match="unknown binary value tag"):
        wire.loads_frame(blob[:-2] + b"\x7f\x00")


def test_frame_layout_and_roundtrip():
    env = control(0, 1, M.Commit(tree=T1))
    frame = wire.dumps_frame(env)
    (length,) = struct.unpack(">I", frame[: wire.HEADER_SIZE])
    assert length == len(frame) - wire.HEADER_SIZE
    assert wire.loads_frame(frame[wire.HEADER_SIZE:]).body == env.body


# ----------------------------------------------------------------------
# Frames off a real stream: the links' shared receive loop is the one place
# that reads them, so framing faults are driven through a live TCP endpoint.
# ----------------------------------------------------------------------

class _Sink(Node):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = []

    def on_envelope(self, envelope):
        self.received.append(envelope)


def _with_raw_link(scenario):
    """Run ``scenario(runtime, transport, sink, connect)`` on a live 2-node
    TCP runtime; ``connect()`` opens a raw client socket to P1's server."""
    transport = TcpTransport()
    runtime = AsyncRuntime(
        seed=0, transport=transport, delay_model=FixedDelay(0.0), time_scale=0.01
    )
    runtime.add_node(_Sink(0))
    sink = runtime.add_node(_Sink(1))

    async def connect():
        _reader, writer = await asyncio.open_connection(
            transport.host, transport.ports[1]
        )
        return writer

    async def main():
        await runtime.start()
        try:
            await scenario(runtime, transport, sink, connect)
        finally:
            await runtime.shutdown()  # raises if any callback or pump errored

    asyncio.run(asyncio.wait_for(main(), 30))


def test_oversized_incoming_frame_rejected():
    async def scenario(runtime, transport, sink, connect):
        writer = await connect()
        writer.write(struct.pack(">I", wire.MAX_FRAME + 1) + b"x" * 64)
        await runtime.wait_until(
            lambda: transport.links_rejected == 1, timeout=60.0, what="the rejection"
        )
        writer.close()
        assert transport.frames_received == 0 and sink.received == []

    _with_raw_link(scenario)


def test_read_frame_clean_eof_and_truncation():
    frame = wire.dumps_frame(control(0, 1, M.Abort(tree=T2)))

    async def scenario(runtime, transport, sink, connect):
        # EOF mid-header, then mid-frame: each costs its connection only.
        for rejected, partial in enumerate((b"\x00\x00", frame[:-3]), start=1):
            writer = await connect()
            writer.write(partial)
            writer.close()
            await runtime.wait_until(
                lambda: transport.links_rejected == rejected,
                timeout=60.0, what=f"rejection {rejected}",
            )
        # Clean EOF between frames is not a rejection.
        writer = await connect()
        writer.write(frame)
        writer.close()
        await runtime.wait_until(
            lambda: len(sink.received) == 1, timeout=60.0, what="the whole frame"
        )
        await runtime.run_for(1.0)
        assert transport.links_rejected == 2

    _with_raw_link(scenario)


def test_read_frame_reassembles_split_frames():
    env = control(0, 1, M.Abort(tree=T2))
    frame = wire.dumps_frame(env)

    async def scenario(runtime, transport, sink, connect):
        writer = await connect()
        for i in range(len(frame)):  # dribble one byte at a time
            writer.write(frame[i : i + 1])
            await writer.drain()
            await asyncio.sleep(0)
        await runtime.wait_until(
            lambda: len(sink.received) == 1, timeout=60.0, what="the dribbled frame"
        )
        writer.close()
        assert sink.received[0].body == env.body
        assert transport.frames_received == 1 and transport.links_rejected == 0

    _with_raw_link(scenario)


# ----------------------------------------------------------------------
# The one format: tag check, byte-stability, exact round-trip
# ----------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _error_text(blob):
    with pytest.raises(WireError) as caught:
        wire.loads_frame(blob)
    return str(caught.value)


def test_loads_frame_sniffs_format_per_frame():
    """Every frame is checked for the format tag; nothing else is decoded.

    A JSON document — what a retired v1 peer would send — fails loudly.
    """
    env = control(0, 1, M.Commit(tree=T1))
    blob = _payload(env)
    assert blob[0] == wire.BINARY_TAG
    assert wire.loads_frame(blob).body == env.body

    json_doc = b'{"src":0,"dst":1,"category":"control","body":null,"send_time":0.0}'
    assert _error_text(json_doc) == "bad binary frame tag 0x7B"
    assert _error_text(b"{}") == "truncated binary envelope header"
    assert _error_text(b"") == "truncated binary envelope header"
    assert _error_text(b"\x00" + blob[1:]) == "bad binary frame tag 0x00"


# The format in bytes, recorded at df6096a.  Nothing else cross-checks the
# codec, so a change that moves a byte re-records here and says it broke the wire.
_MID = MessageId(3, 2**40)
PINNED_SHAPES = [  # (body, category, msg_id, label) of P1 -> P-2 at t=1.5, and its frame
    (None, NORMAL, None, None,
     "00000013b2000000000001fffffffe3ff8000000000000"),
    (None, NORMAL, _MID, None,
     "0000001fb2000100000001fffffffe3ff8000000000000000000030000010000000000"),
    (None, NORMAL, None, -7,
     "0000001bb2000200000001fffffffe3ff8000000000000fffffffffffffff9"),
    (None, NORMAL, _MID, -7,
     "00000027b2000300000001fffffffe3ff8000000000000000000030000010000000000fffffffffffffff9"),
    (None, CONTROL, None, None,
     "00000013b2000400000001fffffffe3ff8000000000000"),
    (None, CONTROL, _MID, None,
     "0000001fb2000500000001fffffffe3ff8000000000000000000030000010000000000"),
    (None, CONTROL, None, -7,
     "0000001bb2000600000001fffffffe3ff8000000000000fffffffffffffff9"),
    (None, CONTROL, _MID, -7,
     "00000027b2000700000001fffffffe3ff8000000000000000000030000010000000000fffffffffffffff9"),
    (M.NormalBody(), NORMAL, None, None,
     "00000019b2010000000001fffffffe3ff8000000000000000600000300"),
    (M.NormalBody(), NORMAL, _MID, None,
     "00000025b2010100000001fffffffe3ff8000000000000000000030000010000000000000600000300"),
    (M.NormalBody(), NORMAL, None, -7,
     "00000021b2010200000001fffffffe3ff8000000000000fffffffffffffff9000600000300"),
    (M.NormalBody(), NORMAL, _MID, -7,
     "0000002db2010300000001fffffffe3ff8000000000000000000030000010000000000fffffffffffffff9000600000300"),
    (M.NormalBody(), CONTROL, None, None,
     "00000019b2010400000001fffffffe3ff8000000000000000600000300"),
    (M.NormalBody(), CONTROL, _MID, None,
     "00000025b2010500000001fffffffe3ff8000000000000000000030000010000000000000600000300"),
    (M.NormalBody(), CONTROL, None, -7,
     "00000021b2010600000001fffffffe3ff8000000000000fffffffffffffff9000600000300"),
    (M.NormalBody(), CONTROL, _MID, -7,
     "0000002db2010700000001fffffffe3ff8000000000000000000030000010000000000fffffffffffffff9000600000300"),
]
PINNED_CONTROL = {  # kind -> control(0, 1, <the fuzz corpus' body of that kind>) at t=0
    "chkpt_req": "00000018b20204000000000000000100000000000000000b040a030e",
    "chkpt_ack": "00000020b20304000000000000000100000000000000000b040a0106030b00020306030a",
    "ready_to_commit": "00000016b20404000000000000000100000000000000000b040a",
    "commit": "00000016b20504000000000000000100000000000000000b040a",
    "abort": "00000016b20604000000000000000100000000000000000b040a",
    "roll_req": "0000001ab20704000000000000000100000000000000000b040a03040308",
    "roll_ack": "00000017b20804000000000000000100000000000000000b040a01",
    "roll_complete": "00000016b20904000000000000000100000000000000000b040a",
    "restart": "00000016b20a04000000000000000100000000000000000b040a",
    "decision_inquiry":
        "00000022b20b04000000000000000100000000"
        "000000000b040a050a636865636b706f696e74",
    "decision_reply":
        "0000002ab20c0400000000000000010000000000000000"
        "0b040a050a636865636b706f696e740506636f6d6d6974",
    "handoff":
        "0000003ab20d0400000000000000010000000000000000030606020b040a0b"
        "0002060106020b040a050561626f7274030c06020602030203080602030400",
}
RICH_CORPUS_SHA256 = "74d8541c0eab734ea837f86dfb3d243ae53ac669c8b3c002bc268255f0e12aff"


def _pinned(envelope, frame_hex):
    frame = bytes.fromhex(frame_hex)
    assert wire.dumps_frame(envelope) == frame
    assert wire.loads_frame(frame[wire.HEADER_SIZE:]) == envelope


def test_frames_are_the_recorded_bytes():
    for body, category, msg_id, label, frame_hex in PINNED_SHAPES:
        _pinned(Envelope(src=1, dst=-2, category=category, body=body, msg_id=msg_id,
                         label=label, send_time=1.5), frame_hex)
    assert set(PINNED_CONTROL) == {cls.kind for cls in M.CONTROL_KINDS}
    for envelope in CONTROL_CORPUS:
        _pinned(envelope, PINNED_CONTROL[envelope.body.kind])


def test_rich_corpus_batch_is_the_recorded_sha256():
    """Big ints, -0.0, inf, non-BMP text, tuple keys, nested maps, sets in
    encoding order, id values: 768 bytes, hashed rather than spelled."""
    batch = wire.encode_batch(RICH_CORPUS)
    assert len(batch) == 768
    assert hashlib.sha256(batch).hexdigest() == RICH_CORPUS_SHA256


_tree_ids = st.builds(TreeId, st.integers(0, 9), st.integers(0, 999))
_msg_ids = st.builds(MessageId, st.integers(0, 9), st.integers(0, 9999))
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
    _tree_ids,
    _msg_ids,
)
_payloads = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(
            st.one_of(st.integers(-100, 100), st.text(max_size=8), _tree_ids),
            children,
            max_size=4,
        ),
        st.sets(st.one_of(st.integers(-100, 100), st.text(max_size=8)), max_size=4),
    ),
    max_leaves=10,
)
_bodies = st.one_of(
    st.builds(
        M.NormalBody,
        payload=_payloads,
        markers=st.lists(_tree_ids, max_size=3).map(tuple),
        marker_seq=st.integers(0, 50),
        incarnation=st.integers(0, 5),
    ),
    st.builds(M.ChkptReq, tree=_tree_ids, max_label=st.integers(-1, 10**6)),
    st.builds(
        M.ChkptAck,
        tree=_tree_ids,
        positive=st.booleans(),
        undone_notice=st.one_of(
            st.none(), st.tuples(_tree_ids, st.integers(0, 99), st.integers(0, 99))
        ),
    ),
    st.builds(M.ReadyToCommit, tree=_tree_ids),
    st.builds(M.Commit, tree=_tree_ids),
    st.builds(M.Abort, tree=_tree_ids),
    st.builds(
        M.RollReq,
        tree=_tree_ids,
        undo_seq=st.integers(0, 99),
        undone_upto=st.integers(0, 99),
    ),
    st.builds(M.RollAck, tree=_tree_ids, positive=st.booleans()),
    st.builds(M.RollComplete, tree=_tree_ids),
    st.builds(M.Restart, tree=_tree_ids),
    st.builds(
        M.DecisionInquiry,
        tree=_tree_ids,
        decision_kind=st.sampled_from(["checkpoint", "rollback"]),
    ),
    st.builds(
        M.DecisionReply,
        tree=_tree_ids,
        decision_kind=st.sampled_from(["checkpoint", "rollback"]),
        decision=st.one_of(st.none(), st.sampled_from(["commit", "abort", "restart"])),
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    body=_bodies,
    src=st.integers(0, 31),
    dst=st.integers(0, 31),
    send_time=st.floats(0, 1e6, allow_nan=False),
    label=st.integers(0, 2**40),
    idx=st.integers(0, 2**40),
)
def test_binary_frames_are_byte_stable_and_agree_with_json(
    body, src, dst, send_time, label, idx
):
    """The codec property, for every registered body kind:

    * ``loads_frame(dumps_frame(env))`` equals ``env`` itself, field by
      field (the name remembers the JSON format this was once checked
      against; there is one format now), and
    * decoding then re-encoding reproduces the *identical* bytes.
    """
    if isinstance(body, M.NormalBody):
        env = normal(src, dst, MessageId(src, idx), label=label, body=body)
    else:
        env = control(src, dst, body)
    env.send_time = send_time

    blob = _payload(env)
    assert blob[0] == wire.BINARY_TAG
    decoded = wire.loads_frame(blob)
    assert _payload(decoded) == blob
    assert decoded == env
    assert type(decoded.body) is type(env.body)
