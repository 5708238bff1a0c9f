"""Wire codec and framing for the live runtime's transports.

One frame = one envelope.  Framing is the classic length-prefix: a 4-byte
big-endian unsigned length followed by that many payload bytes.  The payload
is a struct-packed header (format tag, body-kind code, flags, src/dst, send
time, then the optional message id and label) followed by the body's fields
as compact tagged values (varint ints, raw doubles, length-prefixed UTF-8).

There is exactly one format and no per-connection negotiation: every frame
opens with :data:`BINARY_TAG`, and :func:`loads_frame` raises
:class:`~repro.errors.WireError` on anything else, so a version-skewed peer
fails loudly on its first frame.  (JSON remains the *trace* format — see
:mod:`repro.sim.trace` — but nothing on a socket speaks it.)

Bodies are serialized by *kind*: every control dataclass in
:data:`repro.core.messages.CONTROL_KINDS` registers under its ``kind``
class attribute, and :class:`~repro.core.messages.NormalBody` under
``"normal"``.  Unknown kinds raise :class:`~repro.errors.WireError` on both
ends rather than corrupting protocol state.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple, Type, Union

from repro.core.messages import CONTROL_KINDS, NormalBody
from repro.errors import WireError
from repro.net.message import CONTROL, NORMAL, Envelope
from repro.types import MessageId, TreeId

#: Anything the decoders accept: the zero-copy receive path hands them
#: ``memoryview`` slices of the socket buffer instead of ``bytes`` copies.
Buffer = Union[bytes, bytearray, memoryview]

_HEADER = struct.Struct(">I")
HEADER_SIZE = _HEADER.size
MAX_FRAME = 16 * 1024 * 1024  # sanity bound; a control message is ~100 bytes
#: Deepest container nesting of a body field, in both directions: the bound is
#: explicit so the interpreter's recursion limit never decides what decodes.
MAX_VALUE_DEPTH = 100
#: Longest varint, in both directions: 19 * 7 = 133 bits hold any zigzagged
#: 128-bit int.  Without it a run of continuation bytes builds an ever larger
#: int, quadratic in its length, before the frame can be rejected.
MAX_VARINT_BYTES = 19
_MAX_VARINT_BITS = 7 * MAX_VARINT_BYTES

NORMAL_KIND = "normal"

BODY_REGISTRY: Dict[str, Type[Any]] = {cls.kind: cls for cls in CONTROL_KINDS}
BODY_REGISTRY[NORMAL_KIND] = NormalBody


# ----------------------------------------------------------------------
# Body / envelope codec
# ----------------------------------------------------------------------

BINARY_TAG = 0xB2  # first payload byte of every frame; anything else is rejected

# Stable kind codes: 0 = no body, 1 = normal, control kinds in registration
# order after that.  Both ends derive the table from the same CONTROL_KINDS
# tuple, so the codes agree by construction.
_KIND_CODE: Dict[str, int] = {NORMAL_KIND: 1}
_KIND_CODE.update({cls.kind: i + 2 for i, cls in enumerate(CONTROL_KINDS)})
_CODE_KIND: Dict[int, str] = {code: kind for kind, code in _KIND_CODE.items()}
_BODY_FIELDS: Dict[str, Tuple[str, ...]] = {
    kind: tuple(f.name for f in dataclasses.fields(cls))
    for kind, cls in BODY_REGISTRY.items()
}

# tag, kind_code, flags, src, dst, send_time
_V2_FIXED = struct.Struct(">BBBiid")
_V2_MSGID = struct.Struct(">iq")  # sender, send_index
_V2_LABEL = struct.Struct(">q")
_V2_DOUBLE = struct.Struct(">d")

# Bound pack/unpack methods hoisted to module level: the inner loops pay one
# global load instead of an attribute lookup per call, and every Struct is
# compiled exactly once at import.
_PACK_FIXED = _V2_FIXED.pack
_UNPACK_FIXED = _V2_FIXED.unpack_from
_PACK_MSGID = _V2_MSGID.pack
_UNPACK_MSGID = _V2_MSGID.unpack_from
_PACK_LABEL = _V2_LABEL.pack
_UNPACK_LABEL = _V2_LABEL.unpack_from
_PACK_HEADER_INTO = _HEADER.pack_into
_UNPACK_HEADER_FROM = _HEADER.unpack_from

_F_MSGID = 0x01
_F_LABEL = 0x02
_F_CONTROL = 0x04

# Value tags for the payload section (a minimal schema-free binary codec
# covering exactly the vocabulary the trace's JSON field codec handles,
# including its repr degradation for unknown types).
_T_NONE = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT = 3
_T_FLOAT = 4
_T_STR = 5
_T_TUPLE = 6
_T_LIST = 7
_T_SET = 8
_T_MAP = 9
_T_MID = 10
_T_TID = 11
_T_REPR = 12


def _pack_uvarint(out: bytearray, value: int) -> None:
    if value >> _MAX_VARINT_BITS:
        raise WireError(f"int needs a varint longer than MAX_VARINT_BYTES={MAX_VARINT_BYTES}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _pack_zigzag(out: bytearray, value: int) -> None:
    _pack_uvarint(out, value * 2 if value >= 0 else -value * 2 - 1)


def _read_uvarint(blob: Buffer, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        try:
            byte = blob[pos]
        except IndexError:
            raise WireError("truncated varint in binary frame") from None
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if not byte and shift:
                # A zero final byte only pads: the value has a shorter encoding.
                raise WireError("non-canonical varint in binary frame")
            return result, pos
        shift += 7
        if shift == _MAX_VARINT_BITS:
            raise WireError(f"varint longer than MAX_VARINT_BYTES={MAX_VARINT_BYTES}")


def _read_zigzag(blob: Buffer, pos: int) -> Tuple[int, int]:
    raw, pos = _read_uvarint(blob, pos)
    return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1), pos


def _pack_str(out: bytearray, value: str) -> None:
    encoded = value.encode()
    _pack_uvarint(out, len(encoded))
    out += encoded


def _pack_value(
    out: bytearray,
    value: Any,
    depth: int = 0,
    _pack_double: Callable[[float], bytes] = _V2_DOUBLE.pack,
) -> None:
    if depth > MAX_VALUE_DEPTH:
        raise WireError(f"value nesting exceeds MAX_VALUE_DEPTH={MAX_VALUE_DEPTH}")
    depth += 1
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif isinstance(value, int):
        out.append(_T_INT)
        _pack_zigzag(out, value)
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out += _pack_double(value)
    elif isinstance(value, str):
        out.append(_T_STR)
        _pack_str(out, value)
    elif isinstance(value, MessageId):
        out.append(_T_MID)
        _pack_zigzag(out, value.sender)
        _pack_zigzag(out, value.send_index)
    elif isinstance(value, TreeId):
        out.append(_T_TID)
        _pack_zigzag(out, value.initiator)
        _pack_zigzag(out, value.initiation_seq)
    elif isinstance(value, tuple):
        out.append(_T_TUPLE)
        _pack_uvarint(out, len(value))
        for item in value:
            _pack_value(out, item, depth)
    elif isinstance(value, list):
        out.append(_T_LIST)
        _pack_uvarint(out, len(value))
        for item in value:
            _pack_value(out, item, depth)
    elif isinstance(value, (set, frozenset)):
        # Byte-stable: order members by their own encoding.
        members: List[bytes] = []
        for item in value:
            buf = bytearray()
            _pack_value(buf, item, depth)
            members.append(bytes(buf))
        out.append(_T_SET)
        _pack_uvarint(out, len(members))
        for blob in sorted(members):
            out += blob
    elif isinstance(value, dict):
        out.append(_T_MAP)
        _pack_uvarint(out, len(value))
        for key, item in value.items():
            _pack_value(out, key, depth)
            _pack_value(out, item, depth)
    else:
        # Same lossy degradation as the trace codec's {"$repr": ...}: decodes
        # to the repr string on the other end.
        out.append(_T_REPR)
        _pack_str(out, repr(value))


def _read_str(blob: Buffer, pos: int) -> Tuple[str, int]:
    length, pos = _read_uvarint(blob, pos)
    end = pos + length
    if end > len(blob):
        raise WireError("truncated string in binary frame")
    # str(buffer, "utf-8") decodes bytes and memoryview slices alike, with
    # the same UnicodeDecodeError behaviour as bytes.decode().
    return str(blob[pos:end], "utf-8"), end


def _read_value(
    blob: Buffer,
    pos: int,
    depth: int = 0,
    _unpack_double: Callable[..., Tuple[float]] = _V2_DOUBLE.unpack_from,
) -> Tuple[Any, int]:
    if depth > MAX_VALUE_DEPTH:
        raise WireError(f"value nesting exceeds MAX_VALUE_DEPTH={MAX_VALUE_DEPTH}")
    depth += 1
    try:
        tag = blob[pos]
    except IndexError:
        raise WireError("truncated value in binary frame") from None
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_INT:
        return _read_zigzag(blob, pos)
    if tag == _T_FLOAT:
        end = pos + 8
        if end > len(blob):
            raise WireError("truncated float in binary frame")
        return _unpack_double(blob, pos)[0], end
    if tag in (_T_STR, _T_REPR):
        return _read_str(blob, pos)
    if tag == _T_MID:
        sender, pos = _read_zigzag(blob, pos)
        send_index, pos = _read_zigzag(blob, pos)
        return MessageId(sender, send_index), pos
    if tag == _T_TID:
        initiator, pos = _read_zigzag(blob, pos)
        initiation_seq, pos = _read_zigzag(blob, pos)
        return TreeId(initiator, initiation_seq), pos
    if tag in (_T_TUPLE, _T_LIST, _T_SET):
        count, pos = _read_uvarint(blob, pos)
        items = []
        for _ in range(count):
            item, pos = _read_value(blob, pos, depth)
            items.append(item)
        if tag == _T_TUPLE:
            return tuple(items), pos
        if tag == _T_SET:
            return set(items), pos
        return items, pos
    if tag == _T_MAP:
        count, pos = _read_uvarint(blob, pos)
        mapping = {}
        for _ in range(count):
            key, pos = _read_value(blob, pos, depth)
            item, pos = _read_value(blob, pos, depth)
            mapping[key] = item
        return mapping, pos
    raise WireError(f"unknown binary value tag {tag}")


def _encode_envelope_into(out: bytearray, envelope: Envelope) -> None:
    """Append the v2 payload of ``envelope`` (no length prefix) to ``out``."""
    body = envelope.body
    if body is None:
        kind_code = 0
        field_names: Tuple[str, ...] = ()
    else:
        kind = NORMAL_KIND if isinstance(body, NormalBody) else getattr(body, "kind", None)
        cls = BODY_REGISTRY.get(kind)
        if cls is None or not isinstance(body, cls):
            raise WireError(f"unregistered body type {type(body).__name__!r}")
        kind_code = _KIND_CODE[kind]
        field_names = _BODY_FIELDS[kind]
    category = envelope.category
    if category == CONTROL:
        flags = _F_CONTROL
    elif category == NORMAL:
        flags = 0
    else:
        raise WireError(f"cannot binary-encode category {category!r}")
    msg_id = envelope.msg_id
    label = envelope.label
    if msg_id is not None:
        flags |= _F_MSGID
    if label is not None:
        flags |= _F_LABEL
    out += _PACK_FIXED(
        BINARY_TAG, kind_code, flags, envelope.src, envelope.dst, envelope.send_time
    )
    if msg_id is not None:
        out += _PACK_MSGID(msg_id.sender, msg_id.send_index)
    if label is not None:
        out += _PACK_LABEL(label)
    for name in field_names:
        _pack_value(out, getattr(body, name))


def dumps_frame(envelope: Envelope) -> bytes:
    """Encode an envelope into one length-prefixed wire frame."""
    out = bytearray(HEADER_SIZE)  # length backpatched below
    _encode_envelope_into(out, envelope)
    payload = len(out) - HEADER_SIZE
    if payload > MAX_FRAME:
        raise WireError(f"frame of {payload} bytes exceeds MAX_FRAME={MAX_FRAME}")
    _PACK_HEADER_INTO(out, 0, payload)
    return bytes(out)


def loads_frame(blob: Buffer) -> Envelope:
    """Decode a frame *payload* (header already stripped) to an envelope.

    The first byte must be :data:`BINARY_TAG`; any other format — a JSON
    document from a pre-binary peer, say — raises, frame by frame.  Accepts
    any bytes-like object; the zero-copy receive path passes ``memoryview``
    slices.  The payload is exactly one envelope: bytes left over after the
    last body field are a :class:`~repro.errors.WireError` like any other
    malformation, and so is whatever a hostile payload makes the reader
    raise (undecodable UTF-8, an unhashable map key or set member).
    """
    try:
        return _decode_payload(blob)
    except (ValueError, TypeError, RecursionError) as exc:
        raise WireError(f"malformed binary frame: {type(exc).__name__}: {exc}") from exc


def _decode_payload(blob: Buffer) -> Envelope:
    if len(blob) < _V2_FIXED.size:
        raise WireError("truncated binary envelope header")
    tag, kind_code, flags, src, dst, send_time = _UNPACK_FIXED(blob, 0)
    if tag != BINARY_TAG:
        raise WireError(f"bad binary frame tag 0x{tag:02X}")
    pos = _V2_FIXED.size
    msg_id = None
    if flags & _F_MSGID:
        end = pos + _V2_MSGID.size
        if end > len(blob):
            raise WireError("truncated binary message id")
        sender, send_index = _UNPACK_MSGID(blob, pos)
        msg_id = MessageId(sender, send_index)
        pos = end
    label = None
    if flags & _F_LABEL:
        end = pos + _V2_LABEL.size
        if end > len(blob):
            raise WireError("truncated binary label")
        (label,) = _UNPACK_LABEL(blob, pos)
        pos = end
    if kind_code == 0:
        body = None
    else:
        kind = _CODE_KIND.get(kind_code)
        if kind is None:
            raise WireError(f"unknown binary body kind code {kind_code}")
        values = []
        for _ in _BODY_FIELDS[kind]:
            value, pos = _read_value(blob, pos)
            values.append(value)
        body = BODY_REGISTRY[kind](*values)
    if pos != len(blob):
        raise WireError(f"{len(blob) - pos} trailing byte(s) after the binary body")
    return Envelope(
        src=src,
        dst=dst,
        category=CONTROL if flags & _F_CONTROL else NORMAL,
        body=body,
        msg_id=msg_id,
        label=label,
        send_time=send_time,
    )


def roundtrip(envelope: Envelope) -> Envelope:
    """Serialize + deserialize an envelope through the full wire codec.

    The loopback transport runs every message through this by default, so
    even socket-free tests prove the traffic is wire-serializable.
    """
    return loads_frame(dumps_frame(envelope)[HEADER_SIZE:])


# Reused batch-assembly buffer: one allocation per process instead of one
# bytearray + one bytes per frame per batch.  Safe because encoding is
# synchronous and each process encodes on one thread; the returned value is
# an immutable copy, so the buffer can be cleared on the next call.
_BATCH_BUF = bytearray()


def encode_batch(envelopes: Sequence[Envelope]) -> bytes:
    """One contiguous buffer of length-prefixed frames for a whole batch.

    Byte-identical to ``b"".join(dumps_frame(e) for e in envelopes)`` — the
    links' coalescing write path — without the per-frame bytes objects and
    the final join copy.
    """
    out = _BATCH_BUF
    out.clear()
    for envelope in envelopes:
        header_at = len(out)
        out += b"\x00\x00\x00\x00"  # length backpatched below
        _encode_envelope_into(out, envelope)
        payload = len(out) - header_at - HEADER_SIZE
        if payload > MAX_FRAME:
            out.clear()
            raise WireError(f"frame of {payload} bytes exceeds MAX_FRAME={MAX_FRAME}")
        _PACK_HEADER_INTO(out, header_at, payload)
    return bytes(out)


class FrameDecoder:
    """Sans-IO incremental splitter for a stream of length-prefixed frames.

    The zero-copy receive path: feed raw socket reads in with :meth:`feed`,
    then drain every complete frame with :meth:`frames` — each payload is
    yielded as a ``memoryview`` slice of the internal buffer, so a coalesced
    TCP batch is decoded without one intermediate ``bytes`` copy per frame.

    Contract: decode each yielded view before advancing the iterator, and
    never call :meth:`feed` while a ``frames()`` iteration is live — views
    are released as the iterator advances (or closes), and the buffer is
    compacted on the next feed.  :meth:`eof` turns a connection closed
    mid-header or mid-frame into a :class:`~repro.errors.WireError` (the
    peer died between header and payload — the caller decides whether that
    is a tolerated crash or a bug); a close between frames is clean.
    """

    __slots__ = ("_buf", "_pos")

    def __init__(self) -> None:
        self._buf = bytearray()
        self._pos = 0

    def feed(self, data: Buffer) -> None:
        """Append freshly received bytes (no yielded views may be live)."""
        buf = self._buf
        if self._pos:
            del buf[: self._pos]  # compact consumed frames away
            self._pos = 0
        buf += data

    def frames(self) -> Iterator[memoryview]:
        """Yield each complete frame payload as a zero-copy view."""
        buf = self._buf
        while True:
            pos = self._pos
            if len(buf) - pos < HEADER_SIZE:
                return
            (length,) = _UNPACK_HEADER_FROM(buf, pos)
            if length > MAX_FRAME:
                raise WireError(
                    f"incoming frame of {length} bytes exceeds MAX_FRAME={MAX_FRAME}"
                )
            start = pos + HEADER_SIZE
            if len(buf) - start < length:
                return
            self._pos = start + length
            view = memoryview(buf)[start : start + length]
            try:
                yield view
            finally:
                # Drop the buffer export even if the consumer abandons the
                # iterator mid-frame, so the next feed() can resize.
                view.release()

    def pending(self) -> int:
        """Unconsumed bytes currently buffered (partial frames included)."""
        return len(self._buf) - self._pos

    def eof(self) -> None:
        """Validate a close: raises unless the stream ended between frames."""
        remaining = len(self._buf) - self._pos
        if remaining == 0:
            return
        if remaining < HEADER_SIZE:
            raise WireError("connection closed mid-header")
        raise WireError("connection closed mid-frame")
