"""Fuzz of the frame decoder: the byte boundary of a live link.

Arbitrary bytes and byte-mutated real frames go into ``wire.loads_frame`` and
into ``FrameDecoder`` split at arbitrary chunk boundaries.  The only outcomes
a payload may have are an :class:`Envelope` or a :class:`WireError` —
anything else escaping kills a TCP accept task instead of counting
``links_rejected``.

The profile is fixed (derandomized, bounded, no deadline, no example
database), so a failure here is the same failure on every machine.
"""

import dataclasses
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.messages import CONTROL_KINDS, NormalBody
from repro.errors import WireError
from repro.net.message import CONTROL, NORMAL, Envelope, control
from repro.runtime import wire
from repro.types import MessageId, TreeId

FUZZ = settings(derandomize=True, max_examples=300, deadline=None, database=None)

# One value per control-body field name: a new field without a sample here
# is a KeyError, so the corpus cannot silently stop covering a kind.
_T = TreeId(2, 5)
_FIELD_SAMPLES = {
    "tree": _T, "max_label": 7, "positive": True, "undone_notice": (TreeId(0, 1), 3, 5),
    "undo_seq": 2, "undone_upto": 4, "decision_kind": "checkpoint", "decision": "commit",
    "source": 3, "commit_set": (_T, TreeId(0, 1)), "decisions": ((_T, "abort"),),
    "uncommitted_seq": 6, "spooled": ((1, 4), (2, None)),
}


def _rich_corpus():
    """Envelopes exercising every value tag, both categories, the flag
    combinations and the multi-byte varints of big ints."""
    rich_payload = {
        "ints": [0, 1, -1, 63, 64, -65, 2**40, -(2**40), 2**70, -(2**70) - 1],
        "floats": (0.0, -0.0, 2.5, -1e300, float("inf")),
        "text": ["", "ascii", "snowman ☃", "\U0001f600"],
        ("tuple", "key"): None,
        3: {"nested": {"deep": (1, (2, (3,)))}},
        "flags": [True, False, None],
        "ids": (MessageId(3, 2**40), TreeId(-2, 9)),
        "sets": [{5, -17, 2**66}, frozenset({"b", "a", "ab"})],
    }
    bodies = [
        None,
        NormalBody(),
        NormalBody(
            payload=rich_payload,
            markers=(TreeId(1, 2), TreeId(0, 0)),
            marker_seq=7,
            incarnation=1,
        ),
    ]
    corpus = []
    for i, body in enumerate(bodies):
        corpus.append(
            Envelope(
                src=i,
                dst=-i,
                category=NORMAL,
                body=body,
                msg_id=MessageId(i, 2**40 + i),
                label=-3 - i,
                send_time=0.25 * i,
            )
        )
        corpus.append(
            Envelope(src=-1, dst=2**31 - 1, category=CONTROL, body=body,
                     msg_id=None, label=None, send_time=-1.5)
        )
    return corpus


RICH_CORPUS = _rich_corpus()
CONTROL_CORPUS = [
    control(0, 1, cls(**{f.name: _FIELD_SAMPLES[f.name] for f in dataclasses.fields(cls)}))
    for cls in CONTROL_KINDS
]
CORPUS = RICH_CORPUS + CONTROL_CORPUS
PAYLOADS = [wire.dumps_frame(envelope)[wire.HEADER_SIZE:] for envelope in CORPUS]


def _decode(blob):
    """The envelope, or None for a WireError; anything else propagates."""
    try:
        envelope = wire.loads_frame(blob)
    except WireError:
        return None
    assert type(envelope) is Envelope
    return envelope


def _check(blob):
    """Envelope or WireError, and stable to re-encode: the frame, or None."""
    envelope = _decode(blob)
    if envelope is None:
        return None
    # Compared as bytes: the format is type-tagged, and NaN != NaN.
    once = wire.dumps_frame(envelope)
    again = _decode(once[wire.HEADER_SIZE:])
    assert again is not None and wire.dumps_frame(again) == once
    return once


def _normal(payload):
    return Envelope(src=0, dst=1, category=NORMAL, body=NormalBody(payload=payload))


# ``_HEAD + <one value> + _TAIL`` is a whole NormalBody frame around that value.
_NONE = wire.dumps_frame(_normal(None))[wire.HEADER_SIZE:]
_HEAD, _TAIL = _NONE[: wire._V2_FIXED.size], _NONE[wire._V2_FIXED.size + 1:]

mutations = st.lists(
    st.tuples(st.sampled_from("rid"), st.integers(0, 1 << 16), st.integers(0, 255)),
    min_size=1, max_size=4,
)


def _mutate(payload, edits):
    blob = bytearray(payload)
    for op, at, byte in edits:
        at %= len(blob) + 1
        if op == "i":
            blob.insert(at, byte)
        elif blob and op == "r":
            blob[at % len(blob)] = byte
        elif blob:
            del blob[at % len(blob)]
    return bytes(blob)


def test_the_corpus_covers_every_kind_and_decodes_to_itself():
    assert {type(e.body) for e in CORPUS if e.body is not None} == set(wire.BODY_REGISTRY.values())
    for envelope, payload in zip(CORPUS, PAYLOADS):
        assert _check(payload)[wire.HEADER_SIZE:] == payload
        assert wire.loads_frame(payload) == envelope


@FUZZ
@given(st.binary(max_size=96))
@example(_HEAD + b"\x05\x02\xff\xfe" + _TAIL)  # string tag over invalid UTF-8
@example(_HEAD + b"\x09\x01\x07\x00\x00" + _TAIL)  # a list as map key
@example(_HEAD + b"\x08\x01\x07\x00" + _TAIL)  # a list as set member
@example(_HEAD + b"\x06\x01" * 5000 + b"\x00" + _TAIL)  # 5 000 nested tuples
def test_arbitrary_bytes_decode_or_raise_wire_error(blob):
    _check(blob)
    # Past the tag and kind checks, where arbitrary bytes rarely get alone.
    _check(_HEAD + blob)


@FUZZ
@given(st.sampled_from(PAYLOADS), mutations)
def test_mutated_frames_decode_or_raise_wire_error(payload, edits):
    _check(_mutate(payload, edits))


@pytest.mark.parametrize("depth, accepted", [(wire.MAX_VALUE_DEPTH, True),
                                             (wire.MAX_VALUE_DEPTH + 1, False)])
def test_nesting_bound_is_the_same_in_both_directions(depth, accepted):
    blob = _HEAD + b"\x06\x01" * depth + b"\x00" + _TAIL
    assert (_check(blob) is not None) == accepted
    value = None
    for _ in range(depth):
        value = (value,)
    envelope = _normal(value)
    if accepted:
        assert wire.dumps_frame(envelope)[wire.HEADER_SIZE:] == blob
    else:
        with pytest.raises(WireError, match="nesting"):
            wire.dumps_frame(envelope)


class _Touched(bytes):
    """Bytes that remember the highest index read one byte at a time."""

    highest = -1

    def __getitem__(self, index):
        if isinstance(index, int):
            self.highest = max(self.highest, index)
        return super().__getitem__(index)


@FUZZ
@given(
    st.sampled_from([b"\x03", b"\x05", b"\x06", b"\x0a", b"\x0b"]),
    st.integers(wire.MAX_VARINT_BYTES, 64),
    st.binary(max_size=8),
)
@example(b"\x03", 1 << 20, b"")  # 1 MB of continuation bytes under _T_INT,
@example(b"\x05", 1 << 20, b"")  # a _T_STR length,
@example(b"\x06", 1 << 20, b"")  # a _T_TUPLE count,
@example(b"\x0a", 1 << 20, b"")  # a _T_MID sender
@example(b"\x0b", 1 << 20, b"")  # and a _T_TID initiator
def test_an_overlong_varint_is_rejected_by_its_length(tag, run, tail):
    """The decoder gives up at byte MAX_VARINT_BYTES of a varint, whatever
    follows: ORing a whole run into one growing int is quadratic in the run,
    and a 16 MB frame of it would hold a node's event loop for a minute."""
    blob = _Touched(_HEAD + tag + b"\x80" * run + tail)
    with pytest.raises(WireError, match="varint longer than MAX_VARINT_BYTES"):
        wire.loads_frame(blob)
    assert blob.highest == len(_HEAD) + wire.MAX_VARINT_BYTES


def test_varint_bound_is_the_same_in_both_directions():
    widest = (1 << 7 * wire.MAX_VARINT_BYTES - 1) - 1  # zigzag doubles it
    for value in (widest, -widest - 1):
        assert wire.roundtrip(_normal(value)).body.payload == value
    for value in (widest + 1, -widest - 2):
        with pytest.raises(WireError, match="MAX_VARINT_BYTES"):
            wire.dumps_frame(_normal(value))


@pytest.mark.parametrize("padded", [b"\x80\x00", b"\xff\x00", b"\x81\x80\x00"])
def test_a_varint_padded_with_a_zero_byte_is_rejected(padded):
    """One value, one encoding: a multi-byte varint never ends in 0x00."""
    with pytest.raises(WireError, match="non-canonical varint"):
        wire._read_uvarint(padded, 0)
    with pytest.raises(WireError, match="non-canonical varint"):
        wire.loads_frame(_HEAD + b"\x03" + padded + _TAIL)
    # The lone zero byte is zero's canonical encoding.
    assert wire._read_uvarint(b"\x00", 0) == (0, 1)


def test_trailing_bytes_are_rejected():
    """Pinned: a payload is exactly one envelope."""
    for payload in PAYLOADS:
        with pytest.raises(WireError, match="1 trailing byte"):
            wire.loads_frame(payload + b"\x00")


def _split_reference(stream):
    """What a frame splitter owes: the payloads, and how the stream ended."""
    payloads, pos = [], 0
    while len(stream) - pos >= wire.HEADER_SIZE:
        (length,) = struct.unpack_from(">I", stream, pos)
        if length > wire.MAX_FRAME:
            return payloads, "oversize"
        if len(stream) - pos - wire.HEADER_SIZE < length:
            break
        pos += wire.HEADER_SIZE + length
        payloads.append(stream[pos - length:pos])
    return payloads, "clean" if pos == len(stream) else "torn"


@FUZZ
@given(
    st.lists(st.tuples(st.sampled_from(PAYLOADS), st.one_of(st.none(), mutations)), max_size=5),
    st.one_of(st.none(), mutations),
    st.lists(st.integers(1, 40), min_size=1, max_size=8),
)
def test_frame_decoder_is_indifferent_to_chunk_boundaries(frames, stream_edits, chunk_sizes):
    stream = b"".join(
        struct.pack(">I", len(payload)) + payload
        for payload in (p if edits is None else _mutate(p, edits) for p, edits in frames)
    )
    if stream_edits is not None:
        stream = _mutate(stream, stream_edits)  # may hit a length prefix
    expected, ending = _split_reference(stream)

    decoder, got, pos, k = wire.FrameDecoder(), [], 0, 0
    try:
        while pos < len(stream):
            size = chunk_sizes[k % len(chunk_sizes)]
            decoder.feed(stream[pos:pos + size])
            pos, k = pos + size, k + 1
            for view in decoder.frames():
                got.append(bytes(view))
                from_view = _decode(view)  # a view decodes as its bytes do
                assert (from_view and wire.dumps_frame(from_view)) == _check(got[-1])
    except WireError:
        assert ending == "oversize"
    else:
        assert ending != "oversize"
        if ending == "clean":
            decoder.eof()
        else:
            with pytest.raises(WireError, match="closed mid-"):
                decoder.eof()
    assert got == expected
