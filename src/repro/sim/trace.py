"""Structured execution traces: the *emit* layer and the in-memory store.

Every observable action in a simulation — normal/control message sends and
receives, checkpoint lifecycle transitions, rollbacks, crashes, partitions —
is recorded through :meth:`Trace.record` and read back as a
:class:`TraceEvent`.  The analysis package (happens-before, C1/C2
consistency, minimality, domino distance) is written entirely against
traces, so the protocol implementations stay free of measurement code.

The trace records events, dispatches them to the :class:`TraceSink`\\ s it
was built with and closes them; it answers no queries itself:

* :class:`InMemorySink` — the default, and the one in-memory record store:
  four parallel columns, with each record built into a
  :class:`TraceEvent` at most once, when something reads it.
* :class:`JsonlStreamSink` — streams each event to a JSON-lines file at emit
  time, so arbitrarily long runs need no resident trace memory; the file
  round-trips back into the identical event sequence via :func:`load_jsonl`.

Queries go through :attr:`Trace.index`, a
:class:`repro.analysis.index.TraceIndex` view over the in-memory store
(``by_kind``, ``for_process``, ``last_of``, …).

Record kinds are the plain-string ``K_*`` constants of
:mod:`repro.tracekinds`.
"""

from __future__ import annotations

import json
from dataclasses import field
from functools import cached_property
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.compat import slotted_dataclass
from repro.types import MessageId, ProcessId, SimTime, TreeId


@slotted_dataclass()
class TraceEvent:
    """A single trace record.

    ``time`` and ``index`` order the record globally; ``kind`` selects the
    schema of ``fields`` (documented next to each ``K_*`` constant).
    Slotted (no per-event ``__dict__``): a run read back in memory holds one
    per record.  A trace whose only sink is an :class:`InMemorySink` builds
    none while it runs; each is built once, on the first read.
    """

    index: int
    time: SimTime
    kind: str
    pid: Optional[ProcessId]
    fields: Dict[str, Any] = field(default_factory=dict)

    def __getattr__(self, item: str) -> Any:
        # Convenience: ``ev.msg_id`` instead of ``ev.fields["msg_id"]``.
        if item == "fields":  # not yet set (mid-unpickle): avoid recursion
            raise AttributeError(item)
        try:
            return self.fields[item]
        except KeyError:
            raise AttributeError(item) from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pid = f"P{self.pid}" if self.pid is not None else "-"
        extras = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"[{self.index}@{self.time:.4f}] {pid} {self.kind} {extras}"


# ----------------------------------------------------------------------
# Field codecs
# ----------------------------------------------------------------------

def json_safe(value: Any) -> Any:
    """Readable (lossy) JSON projection: rich values become their reprs.

    Used by the benchmark JSON artifacts, where human-readable ids beat
    reconstructability.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(json_safe(v) for v in value)
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    return str(value)


def encode_field(value: Any) -> Any:
    """Lossless JSON encoding of a trace-field value (tagged for decode).

    Handles the vocabulary trace fields actually use — primitives,
    :class:`~repro.types.MessageId`, :class:`~repro.types.TreeId`, tuples,
    lists, dicts — so :class:`JsonlStreamSink` files reload into the
    *identical* event sequence.  Unknown objects degrade to a tagged repr.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, MessageId):
        return {"$mid": [value.sender, value.send_index]}
    if isinstance(value, TreeId):
        return {"$tid": [value.initiator, value.initiation_seq]}
    if isinstance(value, tuple):
        return {"$tup": [encode_field(v) for v in value]}
    if isinstance(value, list):
        return [encode_field(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return {"$set": sorted((encode_field(v) for v in value), key=repr)}
    if isinstance(value, dict):
        return {"$map": [[encode_field(k), encode_field(v)] for k, v in value.items()]}
    return {"$repr": repr(value)}


def decode_field(value: Any) -> Any:
    """Inverse of :func:`encode_field`."""
    if isinstance(value, list):
        return [decode_field(v) for v in value]
    if isinstance(value, dict):
        if "$mid" in value:
            return MessageId(*value["$mid"])
        if "$tid" in value:
            return TreeId(*value["$tid"])
        if "$tup" in value:
            return tuple(decode_field(v) for v in value["$tup"])
        if "$set" in value:
            return {decode_field(v) for v in value["$set"]}
        if "$map" in value:
            return {decode_field(k): decode_field(v) for k, v in value["$map"]}
        if "$repr" in value:
            return value["$repr"]
        return {k: decode_field(v) for k, v in value.items()}
    return value


def encode_event(event: TraceEvent) -> Dict[str, Any]:
    """One JSON-lines record for ``event`` (lossless, see :func:`decode_event`)."""
    return {
        "index": event.index,
        "time": event.time,
        "kind": event.kind,
        "pid": event.pid,
        "fields": {k: encode_field(v) for k, v in event.fields.items()},
    }


def decode_event(payload: Dict[str, Any]) -> TraceEvent:
    """Rebuild a :class:`TraceEvent` from an :func:`encode_event` record."""
    return TraceEvent(
        index=payload["index"],
        time=payload["time"],
        kind=payload["kind"],
        pid=payload["pid"],
        fields={k: decode_field(v) for k, v in payload["fields"].items()},
    )


def load_jsonl(path: str) -> Tuple[List[TraceEvent], int]:
    """Reload a :class:`JsonlStreamSink` file: ``(events, truncated_tail_lines)``.

    A *final* line that fails to parse is dropped and counted (1, else 0):
    the exact artifact a killed writer leaves when the OS persists only a
    prefix of its last write, which merge tooling surfaces so an analysis
    knows events were lost to a crash.  Corruption anywhere *before* the
    tail raises: that is a damaged file, and resuming past it would
    desynchronise every index the trace feeds.
    """
    events: List[TraceEvent] = []
    with open(path) as handle:
        lines = handle.readlines()
    for lineno, raw in enumerate(lines):
        line = raw.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            if any(rest.strip() for rest in lines[lineno + 1:]):
                raise  # interior corruption: not a crash tail
            return events, 1
        events.append(decode_event(payload))
    return events, 0


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------

class TraceSink:
    """Receives every :class:`TraceEvent` as it is emitted.

    Subclass and override :meth:`emit`; override :meth:`close` if the sink
    holds external resources.
    """

    def emit(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release resources; called by :meth:`Trace.close`."""


class InMemorySink(TraceSink):
    """Every record, kept in memory: the default sink and the one record store.

    The records are four parallel columns, ``times``, ``kinds``, ``pids``
    and ``fields``; record ``i`` is position ``i`` of each.  A
    :class:`Trace` whose only sink is exactly this class appends to them
    itself, so a run builds no :class:`TraceEvent`.  Events are a cache
    over the columns: :meth:`event` builds one record and :attr:`events`
    all of them, each at most once, and an event emitted already built is
    kept as that same object.  :class:`repro.analysis.index.TraceIndex`
    queries the columns and builds only the records it returns.
    """

    def __init__(self) -> None:
        self.times: List[SimTime] = []
        self.kinds: List[str] = []
        self.pids: List[Optional[ProcessId]] = []
        self.fields: List[Dict[str, Any]] = []
        # The built prefix (the list ``events`` returns), and records past it
        # built one at a time by ``event``.
        self._built: List[TraceEvent] = []
        self._loose: Dict[int, TraceEvent] = {}

    def __len__(self) -> int:
        return len(self.kinds)

    def emit(self, event: TraceEvent) -> None:
        # A sink fed by emit gets every record this way, so its built prefix
        # never falls behind the columns.
        self._built.append(event)
        self.times.append(event.time)
        self.kinds.append(event.kind)
        self.pids.append(event.pid)
        self.fields.append(event.fields)

    def event(self, i: int) -> TraceEvent:
        """Record ``i`` (a position, ``0 <= i < len(self)``), built on first read."""
        if i < len(self._built):
            return self._built[i]
        event = self._loose.get(i)
        if event is None:
            event = self._loose[i] = TraceEvent(
                i, self.times[i], self.kinds[i], self.pids[i], self.fields[i]
            )
        return event

    @property
    def events(self) -> List[TraceEvent]:
        """Every record so far as a :class:`TraceEvent` (treat as read-only).

        While a :class:`Trace` fills the columns the list does not grow with
        them: later records join it on the next read of ``events``.
        """
        built, loose = self._built, self._loose
        start = len(built)
        columns = (self.times, self.kinds, self.pids, self.fields)
        tail = zip(range(start, len(self.kinds)), *(column[start:] for column in columns))
        built.extend(loose.pop(record[0], None) or TraceEvent(*record) for record in tail)
        return built


#: Events a :class:`JsonlStreamSink` buffers before one ``write``.
FLUSH_EVERY = 64


class JsonlStreamSink(TraceSink):
    """Streams events to a JSON-lines file with constant resident memory.

    Emits are *buffered*: encoded lines accumulate in memory and hit the
    file once every :data:`FLUSH_EVERY` events in a single ``write`` call,
    cutting the per-event syscall overhead that dominated the unbuffered
    sink on large runs; :meth:`flush` forces the buffer out at any point
    (e.g. before a reader opens the file mid-run).  Resident memory stays
    bounded by :data:`FLUSH_EVERY` lines.

    The file reloads with :func:`load_jsonl` into the identical
    :class:`TraceEvent` sequence (the codec is lossless for the trace
    vocabulary: primitives, ``MessageId``, ``TreeId``, tuples, lists,
    dicts).  Emitting into a closed sink raises a descriptive
    :class:`RuntimeError` instead of the bare ``ValueError`` a closed file
    handle would produce mid-run.
    """

    def __init__(self, path: str):
        self.path = str(path)
        self._handle = open(self.path, "w")
        self._buffer: List[str] = []
        self.written = 0

    @property
    def closed(self) -> bool:
        return self._handle is None

    def emit(self, event: TraceEvent) -> None:
        if self._handle is None:
            raise RuntimeError(
                f"JsonlStreamSink({self.path!r}) is closed; "
                "events emitted after Trace.close() are a harness bug"
            )
        self._buffer.append(json.dumps(encode_event(event)))
        self.written += 1
        if len(self._buffer) >= FLUSH_EVERY:
            self.flush()

    def flush(self) -> None:
        """Push buffered lines to the *file on disk* (no-op when empty).

        One ``write`` for the whole buffer, then an OS-level flush so a
        reader opening the path mid-run sees everything emitted so far.
        """
        if self._buffer and self._handle is not None:
            self._handle.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self.flush()
            self._handle.close()
            self._handle = None


# ----------------------------------------------------------------------
# The trace (dispatch point)
# ----------------------------------------------------------------------

class Trace:
    """An append-only log of :class:`TraceEvent` records.

    ``Trace()`` keeps everything in memory (an :class:`InMemorySink`).
    Passing ``sinks=[...]`` replaces that default — e.g.
    ``[JsonlStreamSink(path)]`` for a constant-memory large run.  The sinks
    are fixed here; every record goes to each of them.  Queries go through
    :attr:`index`.
    """

    def __init__(self, sinks: Optional[Sequence[TraceSink]] = None) -> None:
        self._recorded = 0
        self._sinks: List[TraceSink] = list(sinks if sinks is not None else [InMemorySink()])
        self._memory: Optional[InMemorySink] = next(
            (sink for sink in self._sinks if isinstance(sink, InMemorySink)), None
        )
        # The simulator's shape: when the only sink is exactly an
        # InMemorySink (a subclass may override ``emit``), record() appends
        # to its four columns and builds no TraceEvent.
        self._columns: Optional[Tuple[Callable[[Any], None], ...]] = None
        if len(self._sinks) == 1 and type(self._memory) is InMemorySink:
            m = self._memory
            self._columns = (m.times.append, m.kinds.append, m.pids.append, m.fields.append)

    @cached_property
    def index(self):
        """The :class:`~repro.analysis.index.TraceIndex` over the in-memory store.

        Built on first access and kept; each query catches up on the records
        added since the last, so recording stays columnar whatever is read.
        A streaming trace has none: analyse its JSONL file offline.
        """
        from repro.analysis.index import TraceIndex  # deferred: analysis imports sim

        return TraceIndex(self._require_memory())

    def close(self) -> None:
        """Close every sink (flushes :class:`JsonlStreamSink` files)."""
        for sink in self._sinks:
            sink.close()

    def record(
        self,
        time: SimTime,
        kind: str,
        pid: Optional[ProcessId] = None,
        **fields: Any,
    ) -> None:
        """Append a record to the columns, or dispatch it to every sink.

        The one entry for every record: the benchmark's ``sim.trace_emit``
        span wraps it by name and counts its calls.
        """
        columns = self._columns
        if columns is not None:
            append_time, append_kind, append_pid, append_fields = columns
            append_time(time)
            append_kind(kind)
            append_pid(pid)
            append_fields(fields)
            self._recorded += 1
            return
        event = TraceEvent(self._recorded, time, kind, pid, fields)
        self._recorded += 1
        for sink in self._sinks:
            sink.emit(event)

    # ------------------------------------------------------------------
    # The stored events (in-memory configurations only)
    # ------------------------------------------------------------------
    @property
    def events_recorded(self) -> int:
        """Total events ever emitted (independent of retention)."""
        return self._recorded

    def _require_memory(self) -> InMemorySink:
        if self._memory is None:
            raise RuntimeError(
                "this Trace has no InMemorySink (streaming configuration); "
                "load its JSONL file offline with load_jsonl or "
                "TraceIndex.from_jsonl_files"
            )
        return self._memory

    def __len__(self) -> int:
        return self._recorded

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._require_memory().events)

    def __getitem__(self, index: int) -> TraceEvent:
        return self._require_memory().events[index]

    @property
    def events(self) -> List[TraceEvent]:
        """Every record as a :class:`TraceEvent`, built on first read (treat
        as read-only).

        On the default single-sink trace the list does not grow as records
        are added: they join it on the next read of ``events``, so read it
        again after recording more rather than keeping it across a run.
        """
        return self._require_memory().events
