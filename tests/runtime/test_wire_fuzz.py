"""Differential fuzz of the frame decoders: the byte boundary of a live link.

Arbitrary bytes and byte-mutated real frames go into the interpreted decoder,
the compiled one when it is built (CI's ``native`` job runs this file under
``REPRO_NATIVE=require``, so there the C decoder is the one attacked), and
``FrameDecoder`` split at arbitrary chunk boundaries.  The only outcomes a
payload may have are an :class:`Envelope` or a :class:`WireError` — anything
else escaping kills a TCP accept task instead of counting
``links_rejected`` — and the two backends must agree on which, and on the
decoded value.

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
from repro.net.message import NORMAL, Envelope, control
from repro.runtime import wire
from repro.types import TreeId

FUZZ = settings(derandomize=True, max_examples=300, deadline=None, database=None)

DECODERS = [wire._py_loads_frame]
if wire.native_active():
    DECODERS.append(wire._NATIVE.decode_envelope_binary)

# One value per control-body field name: a new field without a sample here
# is a KeyError, so the corpus cannot silently stop covering a kind.
_T = TreeId(2, 5)
_FIELD_SAMPLES = {
    "tree": _T, "max_label": 7, "positive": True, "undone_notice": (TreeId(0, 1), 3, 5),
    "undo_seq": 2, "undone_upto": 4, "decision_kind": "checkpoint", "decision": "commit",
    "source": 3, "commit_set": (_T, TreeId(0, 1)), "decisions": ((_T, "abort"),),
    "uncommitted_seq": 6, "spooled": ((1, 4), (2, None)),
}
CORPUS = wire._probe_corpus() + [
    control(0, 1, cls(**{f.name: _FIELD_SAMPLES[f.name] for f in dataclasses.fields(cls)}))
    for cls in CONTROL_KINDS
]
PAYLOADS = [wire._py_dumps_frame(envelope)[wire.HEADER_SIZE:] for envelope in CORPUS]


def _decode(decoder, blob):
    """The envelope, or None for a WireError; anything else propagates."""
    try:
        envelope = decoder(blob)
    except WireError:
        return None
    assert type(envelope) is Envelope
    return envelope


def _check(blob):
    """Every decoder: Envelope or WireError, the same one, stable to re-encode."""
    encoded = set()
    for decoder in DECODERS:
        envelope = _decode(decoder, blob)
        if envelope is None:
            encoded.add(None)
            continue
        # Compared as bytes: the format is type-tagged, and NaN != NaN.
        once = wire._py_dumps_frame(envelope)
        again = _decode(decoder, once[wire.HEADER_SIZE:])
        assert again is not None and wire._py_dumps_frame(again) == once
        assert wire.dumps_frame(envelope) == once
        encoded.add(once)
    assert len(encoded) == 1, "backends disagree"
    return encoded.pop()


def _normal(payload):
    return Envelope(src=0, dst=1, category=NORMAL, body=NormalBody(payload=payload))


# ``_HEAD + <one value> + _TAIL`` is a whole NormalBody frame around that value.
_NONE = wire._py_dumps_frame(_normal(None))[wire.HEADER_SIZE:]
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
        assert wire._py_loads_frame(payload) == envelope


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
def test_nesting_bound_is_the_same_on_both_backends_and_both_directions(depth, accepted):
    blob = _HEAD + b"\x06\x01" * depth + b"\x00" + _TAIL
    assert (_check(blob) is not None) == accepted
    value = None
    for _ in range(depth):
        value = (value,)
    envelope = _normal(value)
    for encode in (wire._py_dumps_frame, wire.dumps_frame):
        if accepted:
            assert encode(envelope)[wire.HEADER_SIZE:] == blob
        else:
            with pytest.raises(WireError, match="nesting"):
                encode(envelope)


def test_trailing_bytes_are_rejected():
    """Pinned: a payload is exactly one envelope (it used to be accepted,
    silently, by both backends)."""
    for payload in PAYLOADS:
        for decoder in DECODERS:
            with pytest.raises(WireError, match="1 trailing byte"):
                decoder(payload + b"\x00")


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
                from_bytes = _check(got[-1])
                for decode in DECODERS:  # a view decodes as its bytes do
                    from_view = _decode(decode, view)
                    assert (from_view and wire._py_dumps_frame(from_view)) == from_bytes
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
