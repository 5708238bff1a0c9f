"""Zero-copy framing: memoryview decode, FrameDecoder, batch assembly.

The TCP receive path decodes each frame straight from a ``memoryview``
slice of the socket buffer and the send path coalesces a batch into one
buffer with ``encode_batch`` — these tests pin both to the byte-exact
behaviour of the plain ``bytes`` / join-of-frames paths they replaced.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import messages as M
from repro.errors import WireError
from repro.net.message import control, normal
from repro.runtime import wire
from repro.types import MessageId, TreeId

T1 = TreeId(2, 5)
T2 = TreeId(0, 1)

# One envelope per registered body kind (all 12), plus payload variety.
CORPUS = [
    normal(0, 1, MessageId(0, 4), label=3, body=M.NormalBody(payload={"k": [1, 2]})),
    normal(
        1, 0, MessageId(1, 9), label=7,
        body=M.NormalBody(
            payload={"☃": [2**66, -0.0, ("t", None)], 5: {True, "s"}},
            markers=(T1, T2), marker_seq=3, incarnation=1,
        ),
    ),
    control(0, 1, M.ChkptReq(tree=T1, max_label=7)),
    control(0, 1, M.ChkptAck(tree=T1, positive=False, undone_notice=(T2, 3, 5))),
    control(0, 1, M.ReadyToCommit(tree=T1)),
    control(0, 1, M.Commit(tree=T1)),
    control(0, 1, M.Abort(tree=T1)),
    control(1, 0, M.RollReq(tree=T2, undo_seq=2, undone_upto=4)),
    control(1, 0, M.RollAck(tree=T2, positive=True)),
    control(1, 0, M.RollComplete(tree=T2)),
    control(1, 0, M.Restart(tree=T2)),
    control(0, 1, M.DecisionInquiry(tree=T1, decision_kind="checkpoint")),
    control(0, 1, M.DecisionReply(tree=T1, decision_kind="rollback", decision="restart")),
]
for _env in CORPUS:
    _env.send_time = 1.5


def _equal(a, b):
    for attr in ("src", "dst", "category", "msg_id", "label", "send_time", "body"):
        assert getattr(a, attr) == getattr(b, attr)
    assert type(a.body) is type(b.body)


@pytest.mark.parametrize("frames", [1, 2])
@pytest.mark.parametrize("env", CORPUS, ids=lambda e: type(e.body).__name__)
def test_view_and_bytes_decode_agree(env, frames):
    """A payload decodes the same from ``bytes`` and from a view into a
    receive buffer holding ``frames`` coalesced frames (it is the last)."""
    blob = wire.dumps_frame(env)[wire.HEADER_SIZE:]
    buffer = wire.encode_batch([env] * frames)
    view = memoryview(buffer)[len(buffer) - len(blob):]
    assert view == blob
    via_bytes = wire.loads_frame(blob)
    via_view = wire.loads_frame(view)
    _equal(via_bytes, via_view)
    _equal(via_bytes, env)


@pytest.mark.parametrize("env", CORPUS[:3], ids=lambda e: type(e.body).__name__)
def test_truncated_view_and_bytes_raise_the_same_error(env):
    blob = wire.dumps_frame(env)[wire.HEADER_SIZE:]
    for cut in (1, 5, len(blob) // 2, len(blob) - 1):
        with pytest.raises(WireError):
            wire.loads_frame(blob[:cut])
        with pytest.raises(WireError):
            wire.loads_frame(memoryview(blob)[:cut])


_payloads = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**70), max_value=2**70),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=16),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=6), children, max_size=3),
    ),
    max_leaves=8,
)


@settings(max_examples=75, deadline=None)
@given(payload=_payloads, label=st.integers(0, 2**40))
def test_view_decode_matches_bytes_decode_for_arbitrary_payloads(payload, label):
    env = normal(3, 4, MessageId(3, 11), label=label, body=M.NormalBody(payload=payload))
    env.send_time = 2.25
    blob = wire.dumps_frame(env)[wire.HEADER_SIZE:]
    via_view = wire.loads_frame(memoryview(blob))
    _equal(via_view, wire.loads_frame(blob))
    # Re-encoding what the view path decoded reproduces the exact bytes.
    assert wire.dumps_frame(via_view)[wire.HEADER_SIZE:] == blob


# ----------------------------------------------------------------------
# FrameDecoder: the sans-IO splitter behind the TCP receive loop
# ----------------------------------------------------------------------
def _frames_bytes(envs):
    return b"".join(wire.dumps_frame(e) for e in envs)


@pytest.mark.parametrize("chunk", [1, 3, 7, 64, 10**6])
def test_frame_decoder_reassembles_across_reads(chunk):
    stream = _frames_bytes(CORPUS)
    decoder = wire.FrameDecoder()
    decoded = []
    for i in range(0, len(stream), chunk):
        decoder.feed(stream[i : i + chunk])
        for view in decoder.frames():
            assert isinstance(view, memoryview)
            decoded.append(wire.loads_frame(view))
    decoder.eof()  # clean close between frames
    assert decoder.pending() == 0
    assert len(decoded) == len(CORPUS)
    for got, want in zip(decoded, CORPUS):
        _equal(got, want)


def test_frame_decoder_eof_contract_matches_read_frame():
    """The close contract, stated on its own: a stream may end between
    frames and nowhere else.  (``read_frame`` is gone; this is what any
    reader of frames — today the links' receive loop — relies on.)"""
    decoder = wire.FrameDecoder()
    decoder.eof()  # empty stream: clean

    decoder = wire.FrameDecoder()
    decoder.feed(wire.dumps_frame(CORPUS[0]))
    assert len(list(decoder.frames())) == 1
    decoder.eof()  # closed right after a whole frame: clean

    decoder = wire.FrameDecoder()
    decoder.feed(b"\x00\x00")
    with pytest.raises(WireError, match="mid-header"):
        decoder.eof()

    decoder = wire.FrameDecoder()
    decoder.feed(struct.pack(">I", 10) + b"abc")
    with pytest.raises(WireError, match="mid-frame"):
        decoder.eof()


def test_frame_decoder_rejects_oversized_header():
    decoder = wire.FrameDecoder()
    decoder.feed(struct.pack(">I", wire.MAX_FRAME + 1))
    with pytest.raises(WireError, match="exceeds"):
        list(decoder.frames())


def test_frame_decoder_abandoned_iteration_releases_views():
    stream = _frames_bytes(CORPUS[:4])
    decoder = wire.FrameDecoder()
    decoder.feed(stream)
    for view in decoder.frames():
        break  # abandon mid-iteration: the view must still be released
    decoder.feed(stream)  # would raise BufferError if an export leaked
    assert sum(1 for _ in decoder.frames()) == 3 + 4  # 3 left over + 4 fed


# ----------------------------------------------------------------------
# encode_batch: the coalesced send buffer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("repeats", [1, 2])
def test_encode_batch_is_byte_identical_to_joined_frames(repeats):
    assert wire.encode_batch([]) == b""
    batch = CORPUS * repeats
    assert wire.encode_batch(batch) == _frames_bytes(batch)
    # And the buffer reuse does not corrupt a second, shorter batch.
    assert wire.encode_batch(batch[:5]) == _frames_bytes(batch[:5])


def test_encode_batch_splits_back_into_the_same_envelopes():
    buffer = wire.encode_batch(CORPUS)
    decoder = wire.FrameDecoder()
    decoder.feed(buffer)
    decoded = [wire.loads_frame(view) for view in decoder.frames()]
    decoder.eof()
    for got, want in zip(decoded, CORPUS):
        _equal(got, want)
