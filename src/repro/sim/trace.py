"""Structured execution traces: the *emit* layer of the observability stack.

Every observable action in a simulation — normal/control message sends and
receives, checkpoint lifecycle transitions, rollbacks, crashes, partitions —
is recorded through :meth:`Trace.record` as a :class:`TraceEvent`.  The
analysis package (happens-before, C1/C2 consistency, minimality, domino
distance) is written entirely against traces, so the protocol
implementations stay free of measurement code.

The trace itself is a *dispatch point* over pluggable :class:`TraceSink`\\ s:

* :class:`InMemorySink` — the default; keeps every event in a list and backs
  the classic query helpers (``events``, ``of_kind``, ``for_process``, …).
* :class:`JsonlStreamSink` — streams each event to a JSON-lines file at emit
  time, so arbitrarily long runs need no resident trace memory; the file
  round-trips back into the identical event sequence via :func:`load_jsonl`.
* :class:`NullSink` — discards everything (pure-throughput runs).
* :class:`MetricsSink` — maintains rolling counters only (events by kind,
  control-message volume per tree, checkpoint commits/aborts, rollback
  depths) with O(1) memory per counter.
* :class:`repro.analysis.index.TraceIndex` — the *index* layer; built
  incrementally at emit time and reachable as :attr:`Trace.index`.

Record kinds are plain strings (see the ``K_*`` constants) rather than an
enum: benchmarks and tests grep traces constantly and string kinds keep that
frictionless; the constants prevent typos at the production sites.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.compat import slotted_dataclass
from repro.types import MessageId, ProcessId, SimTime, TreeId

# The K_* record-kind constants live in the dependency-free
# :mod:`repro.tracekinds` (so the sans-IO engine can emit them without
# importing this package); re-exported here for backward compatibility.
from repro.tracekinds import (  # noqa: F401
    K_CHKPT_ABORT,
    K_CHKPT_COMMIT,
    K_CHKPT_TENTATIVE,
    K_CRASH,
    K_CTRL_RECEIVE,
    K_CTRL_SEND,
    K_DISCARD,
    K_INSTANCE_ABORT,
    K_INSTANCE_COMMIT,
    K_HANDOFF,
    K_INSTANCE_REJECTED,
    K_INSTANCE_START,
    K_JOIN,
    K_LEAVE,
    K_MERGE,
    K_PARTITION,
    K_RECEIVE,
    K_RECOVER,
    K_RESTART,
    K_RESUME_ALL,
    K_RESUME_SEND,
    K_ROLLBACK,
    K_SEND,
    K_SUSPEND_ALL,
    K_SUSPEND_SEND,
    K_UNDO_RECEIVE,
    K_UNDO_SEND,
)


@slotted_dataclass()
class TraceEvent:
    """A single trace record.

    ``time`` and ``index`` order the record globally; ``kind`` selects the
    schema of ``fields`` (documented next to each ``K_*`` constant).
    Slotted (no per-event ``__dict__``): at a million events per run the
    emit layer is a measurable slice of total wall time.
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

    Used by the legacy :meth:`Trace.to_jsonl` export and by the benchmark
    JSON artifacts, where human-readable ids beat reconstructability.
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


def load_jsonl(path: str, tolerate_truncated_tail: bool = False) -> List[TraceEvent]:
    """Reload a :class:`JsonlStreamSink` file into its event sequence.

    With ``tolerate_truncated_tail`` a *final* line that fails to parse is
    skipped instead of raising — the exact artifact a killed writer leaves
    behind when it dies mid-flush (the buffered sink writes whole lines, but
    the OS may persist only a prefix of the last write).  Corruption
    anywhere *before* the tail still raises: that is not a crash artifact
    but a damaged file, and silently resuming past it would desynchronise
    every index the trace feeds.  Use :func:`load_jsonl_tolerant` to also
    learn how many tail lines were dropped.
    """
    return load_jsonl_tolerant(path)[0] if tolerate_truncated_tail else _load_strict(path)


def _load_strict(path: str) -> List[TraceEvent]:
    events: List[TraceEvent] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(decode_event(json.loads(line)))
    return events


def load_jsonl_tolerant(path: str) -> Tuple[List[TraceEvent], int]:
    """Like :func:`load_jsonl`, returning ``(events, truncated_tail_lines)``.

    ``truncated_tail_lines`` is 1 when the file ends in a partial record
    (0 otherwise); merge tooling surfaces the count so a multi-shard
    analysis knows events were lost to a crash rather than pretending the
    stream ended cleanly.
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
    holds external resources.  ``is_index`` marks the sink as the trace's
    query index (see :class:`repro.analysis.index.TraceIndex`).
    """

    is_index = False

    def emit(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release resources; called by :meth:`Trace.close`."""


class InMemorySink(TraceSink):
    """The classic append-only event list (default sink)."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)


class NullSink(TraceSink):
    """Discards every event (zero-overhead tracing for throughput runs)."""

    def emit(self, event: TraceEvent) -> None:
        pass


class JsonlStreamSink(TraceSink):
    """Streams events to a JSON-lines file with constant resident memory.

    Emits are *buffered*: encoded lines accumulate in memory and hit the
    file once every ``flush_every`` events (default 64) in a single
    ``write`` call, cutting the per-event syscall overhead that dominated
    the unbuffered sink on large runs.  ``flush_every=1`` restores the old
    write-per-event behaviour; :meth:`flush` forces the buffer out at any
    point (e.g. before a reader opens the file mid-run).  Resident memory
    stays bounded by ``flush_every`` lines.

    The file reloads with :func:`load_jsonl` into the identical
    :class:`TraceEvent` sequence (the codec is lossless for the trace
    vocabulary: primitives, ``MessageId``, ``TreeId``, tuples, lists,
    dicts).  Emitting into a closed sink raises a descriptive
    :class:`RuntimeError` instead of the bare ``ValueError`` a closed file
    handle would produce mid-run.
    """

    def __init__(self, path: str, flush_every: int = 64):
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.path = str(path)
        self.flush_every = flush_every
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
        if len(self._buffer) >= self.flush_every:
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


class MetricsSink(TraceSink):
    """Rolling counters over the event stream — O(counters) memory, no log.

    Tracks exactly the aggregates operators watch on a large run:

    * ``events_by_kind`` — every kind's event count;
    * ``control_sends_per_tree`` — control-message volume per instance tree
      (``None`` key: control traffic outside any instance);
    * ``checkpoints_committed`` / ``checkpoints_aborted`` /
      ``checkpoints_tentative`` — checkpoint lifecycle outcomes;
    * ``rollbacks`` and rollback *depth* (ledger records undone per
      rollback): ``rollback_depth_total`` / ``max_rollback_depth``.
    """

    def __init__(self) -> None:
        self.events_by_kind: Counter = Counter()
        self.control_sends_per_tree: Counter = Counter()
        self.checkpoints_tentative = 0
        self.checkpoints_committed = 0
        self.checkpoints_aborted = 0
        self.rollbacks = 0
        self.rollback_depth_total = 0
        self.max_rollback_depth = 0

    @property
    def total_events(self) -> int:
        return sum(self.events_by_kind.values())

    @property
    def mean_rollback_depth(self) -> float:
        return self.rollback_depth_total / self.rollbacks if self.rollbacks else 0.0

    def emit(self, event: TraceEvent) -> None:
        kind = event.kind
        self.events_by_kind[kind] += 1
        if kind == K_CTRL_SEND:
            self.control_sends_per_tree[event.fields.get("tree")] += 1
        elif kind == K_CHKPT_TENTATIVE:
            self.checkpoints_tentative += 1
        elif kind == K_CHKPT_COMMIT:
            self.checkpoints_committed += 1
        elif kind == K_CHKPT_ABORT:
            self.checkpoints_aborted += 1
        elif kind == K_ROLLBACK:
            self.rollbacks += 1
            depth = (event.fields.get("undone_sends", 0)
                     + event.fields.get("undone_receives", 0))
            self.rollback_depth_total += depth
            if depth > self.max_rollback_depth:
                self.max_rollback_depth = depth

    def snapshot(self) -> Dict[str, Any]:
        """Flat dict of every counter (for dashboards and bench artifacts)."""
        return {
            "total_events": self.total_events,
            "events_by_kind": dict(self.events_by_kind),
            "control_sends_per_tree": {
                str(tree): count for tree, count in self.control_sends_per_tree.items()
            },
            "checkpoints_tentative": self.checkpoints_tentative,
            "checkpoints_committed": self.checkpoints_committed,
            "checkpoints_aborted": self.checkpoints_aborted,
            "rollbacks": self.rollbacks,
            "mean_rollback_depth": self.mean_rollback_depth,
            "max_rollback_depth": self.max_rollback_depth,
        }


# ----------------------------------------------------------------------
# The trace (dispatch point)
# ----------------------------------------------------------------------

class Trace:
    """An append-only log of :class:`TraceEvent` records with query helpers.

    ``Trace()`` keeps everything in memory (an :class:`InMemorySink`), which
    is what the query helpers and the analysis layer read.  Passing
    ``sinks=[...]`` replaces that default — e.g. ``[JsonlStreamSink(path),
    MetricsSink()]`` for a constant-memory large run.  Sinks can also be
    attached later with :meth:`add_sink`, which replays already-recorded
    events into the newcomer when an in-memory sink is present.
    """

    def __init__(self, sinks: Optional[Sequence[TraceSink]] = None) -> None:
        self._recorded = 0
        self._memory: Optional[InMemorySink] = None
        self._index: Optional[TraceSink] = None
        self._sinks: List[TraceSink] = []
        # Fast dispatch: with exactly one sink attached (the common bench
        # and production shape), record() calls its bound emit directly
        # instead of looping over a one-element list — and when that sink
        # is a plain InMemorySink, its list's own ``append``, so storing a
        # record costs no Python call at all.
        self._solo_emit: Optional[Callable[[TraceEvent], None]] = None
        for sink in (sinks if sinks is not None else [InMemorySink()]):
            self.add_sink(sink)

    # ------------------------------------------------------------------
    # Sink management
    # ------------------------------------------------------------------
    def add_sink(self, sink: TraceSink, backfill: bool = True) -> TraceSink:
        """Attach ``sink``; replay prior events into it when possible.

        Backfill needs the events, so attaching to a non-empty trace that
        kept no :class:`InMemorySink` is an error — attach sinks up front on
        streaming configurations.
        """
        if backfill and self._recorded:
            if self._memory is None:
                raise RuntimeError(
                    "cannot backfill a sink: this Trace kept no InMemorySink; "
                    "attach sinks before recording events"
                )
            for event in self._memory.events:
                sink.emit(event)
        if self._memory is None and isinstance(sink, InMemorySink):
            self._memory = sink
        if self._index is None and sink.is_index:
            self._index = sink
        self._sinks.append(sink)
        self._solo_emit = None
        if len(self._sinks) == 1:
            # Exactly InMemorySink: a subclass may override ``emit``.
            self._solo_emit = sink.events.append if type(sink) is InMemorySink else sink.emit
        return sink

    @property
    def sinks(self) -> List[TraceSink]:
        return list(self._sinks)

    @property
    def index(self):
        """The trace's :class:`~repro.analysis.index.TraceIndex`.

        Created (and backfilled) on first access; thereafter maintained
        incrementally at emit time.  On streaming configurations access it
        *before* the run so there is nothing to backfill.
        """
        if self._index is None:
            from repro.analysis.index import TraceIndex  # deferred: analysis imports sim

            self.add_sink(TraceIndex())
        return self._index

    def close(self) -> None:
        """Close every sink (flushes :class:`JsonlStreamSink` files)."""
        for sink in self._sinks:
            sink.close()

    # ------------------------------------------------------------------
    # Emit
    # ------------------------------------------------------------------
    def record(
        self,
        time: SimTime,
        kind: str,
        pid: Optional[ProcessId] = None,
        **fields: Any,
    ) -> TraceEvent:
        """Append a record, dispatch it to every sink, and return it.

        The one entry for every record: the benchmark's ``sim.trace_emit``
        span wraps it by name and counts its calls.
        """
        event = TraceEvent(self._recorded, time, kind, pid, fields)
        self._recorded += 1
        if self._solo_emit is not None:
            self._solo_emit(event)
        else:
            for sink in self._sinks:
                sink.emit(event)
        return event

    # ------------------------------------------------------------------
    # Queries (served by the in-memory sink / the index)
    # ------------------------------------------------------------------
    @property
    def events_recorded(self) -> int:
        """Total events ever emitted (independent of retention)."""
        return self._recorded

    @property
    def retained_events(self) -> int:
        """Events currently resident in memory (0 on streaming configs)."""
        return len(self._memory.events) if self._memory is not None else 0

    def _require_memory(self) -> List[TraceEvent]:
        if self._memory is None:
            raise RuntimeError(
                "this Trace has no InMemorySink (streaming configuration); "
                "use trace.index for queries or load the JSONL file offline"
            )
        return self._memory.events

    def __len__(self) -> int:
        return self._recorded

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._require_memory())

    def __getitem__(self, index: int) -> TraceEvent:
        return self._require_memory()[index]

    @property
    def events(self) -> List[TraceEvent]:
        """The underlying record list (treat as read-only)."""
        return self._require_memory()

    def of_kind(self, *kinds: str) -> List[TraceEvent]:
        """All records whose kind is one of ``kinds``, in order."""
        if self._index is not None:
            return self._index.by_kind(*kinds)
        wanted = set(kinds)
        return [e for e in self._require_memory() if e.kind in wanted]

    def for_process(self, pid: ProcessId, *kinds: str) -> List[TraceEvent]:
        """Records of ``pid``, optionally restricted to ``kinds``."""
        if self._index is not None:
            return self._index.for_process(pid, *kinds)
        wanted = set(kinds) if kinds else None
        return [
            e
            for e in self._require_memory()
            if e.pid == pid and (wanted is None or e.kind in wanted)
        ]

    def where(self, predicate: Callable[[TraceEvent], bool]) -> List[TraceEvent]:
        """Records satisfying an arbitrary predicate, in order."""
        return [e for e in self._require_memory() if predicate(e)]

    def last(self, kind: str, pid: Optional[ProcessId] = None) -> Optional[TraceEvent]:
        """Most recent record of ``kind`` (for ``pid`` if given), or None."""
        if self._index is not None:
            return self._index.last_of(kind, pid)
        for event in reversed(self._require_memory()):
            if event.kind == kind and (pid is None or event.pid == pid):
                return event
        return None

    def dump(self, limit: Optional[int] = None) -> str:
        """Human-readable rendering of the trace (for debugging and docs)."""
        events = self._require_memory()
        if limit is not None:
            events = events[:limit]
        return "\n".join(repr(e) for e in events)

    def to_jsonl(self, path: str) -> int:
        """Export the trace as *readable* JSON lines for offline analysis.

        Non-JSON field values (tree timestamps, message ids) are stringified
        with their readable reprs — use :class:`JsonlStreamSink` +
        :func:`load_jsonl` when the file must round-trip losslessly.
        Returns the number of records written.
        """
        events = self._require_memory()
        with open(path, "w") as handle:
            for event in events:
                handle.write(json.dumps({
                    "index": event.index,
                    "time": event.time,
                    "kind": event.kind,
                    "pid": event.pid,
                    **{k: json_safe(v) for k, v in event.fields.items()},
                }) + "\n")
        return len(events)
