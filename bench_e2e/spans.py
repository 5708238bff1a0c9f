"""Span recorder and the wrappers that put it around each layer's entry points.

The program has no instrumentation of its own yet, so the traced run wraps
the public (and, where the boundary has no public face, the one private)
function at each layer boundary *from here*: nothing under ``src/`` is
edited.  A wrapper opens a span — name, start, end, the span it was opened
under — on one in-memory stack; :func:`bench_e2e.derive.self_times` turns
the recorded forest into per-layer self time when the run is over.

Both clock reads sit at the outer edge of the wrapper, so the recorder's own
bookkeeping is charged to the span being recorded, not to its parent: a
layer's self time is inflated by its *own* call count times the wrapper
cost, and ``trace_overhead_frac`` says by how much in total.

Wrappers must be installed before the kernel is built (an adapter binds
``self._apply_effect`` into its engine at construction) and after ``repro``
is imported (``repro._native`` rebinds ``wire.encode_batch`` and friends at
import; wrapping the module attribute afterwards wraps whichever
implementation won).  The run's self-check (``scenarios.check_spans``)
catches a boundary that an alias or a rebinding let slip past its wrapper.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from bench_e2e import derive


class SpanRecorder:
    """Columnar in-memory store of spans plus the stack of open ones."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.stack: List[int] = []

    def name_id(self, name: str) -> int:
        known = self._name_ids.get(name)
        if known is None:
            known = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return known

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a span named ``name`` around every call."""
        nid = self.name_id(name)
        clock = self.clock
        name_ids, starts, ends, parents, stack = (
            self.name_ids, self.starts, self.ends, self.parents, self.stack,
        )

        def traced(*args: Any, **kwargs: Any) -> Any:
            t0 = clock()
            index = len(starts)
            starts.append(t0)
            ends.append(t0)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                ends[index] = clock()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def mark(self) -> int:
        """Position in the span store, for delimiting a timed window."""
        return len(self.starts)

    def self_times(self, lo: int = 0, hi: Optional[int] = None) -> Dict[str, Dict[str, float]]:
        """Per-name calls and self time of the spans opened in ``[lo, hi)``.

        The window must open and close at stack depth 0 (it does: the timed
        windows are top-level calls), so no span in it has a parent outside.
        """
        hi = len(self.starts) if hi is None else hi
        return derive.self_times(
            [self.names[i] for i in self.name_ids[lo:hi]],
            self.starts[lo:hi],
            self.ends[lo:hi],
            [p - lo if p >= 0 else -1 for p in self.parents[lo:hi]],
        )

    def dump(self, path: str) -> int:
        """Write every span as one JSON line; returns how many."""
        with open(path, "w") as handle:
            for i in range(len(self.starts)):
                handle.write(json.dumps([
                    self.names[self.name_ids[i]], self.starts[i], self.ends[i], self.parents[i],
                ]))
                handle.write("\n")
        return len(self.starts)


# ----------------------------------------------------------------------
# Layer boundaries
# ----------------------------------------------------------------------

#: span name -> [(module, class or None, attribute), ...].  A class method is
#: patched on the class in the MRO that defines it, so subclasses
#: (``AppProcess``, ``ShardNetwork``) inherit the wrapper.
BOUNDARIES: Dict[str, Sequence[Tuple[str, Optional[str], str]]] = {
    "core.handle": [("repro.core.engine", "ProtocolEngine", "handle")],
    "core.adapter": [
        ("repro.core.process", "CheckpointProcess", name)
        for name in (
            "on_start", "on_envelope", "_timer_fired", "initiate_checkpoint",
            "initiate_rollback", "send_app_message", "local_step", "app_op",
            "on_crash", "on_recover", "on_failure_notice", "on_recovery_notice",
        )
    ],
    # The effect interpreter runs *inside* handle (the engine's eager sink),
    # so without its own span its cost would read as engine time.
    "core.effects": [("repro.core.process", "CheckpointProcess", "_apply_effect")],
    "app.apply": [("repro.app.state", "AppHost", "apply")],
    "app.driver": [("repro.app.driver", "JobDriver", "_tick")],
    "sim.scheduler": [("repro.sim.scheduler", "Scheduler", "run")],
    "sim.trace_emit": [("repro.sim.trace", "Trace", "record")],
    "net.send": [
        ("repro.net.network", "Network", "transmit"),
        ("repro.runtime.network", "RuntimeNetwork", "transmit"),
    ],
    "net.deliver": [
        ("repro.net.network", "Network", name)
        for name in (
            "_deliver", "redeliver", "spool_or_drop", "observe_decision",
            "note_transport_drop",
        )
    ],
    "stable.put": [
        ("repro.stable.storage", "InMemoryStableStorage", "put"),
        ("repro.stable.storage", "InMemoryStableStorage", "delete"),
        ("repro.stable.storage", "WriteBehindFileStableStorage", "put"),
        ("repro.stable.storage", "WriteBehindFileStableStorage", "delete"),
    ],
    "stable.get": [
        ("repro.stable.storage", "InMemoryStableStorage", "get"),
        ("repro.stable.storage", "WriteBehindFileStableStorage", "get"),
    ],
    "stable.flush": [("repro.stable.storage", "WriteBehindFileStableStorage", "flush")],
    "failure.detector": [
        ("repro.failure.detector", "FailureDetector", name)
        for name in (
            "status_snapshot", "believed_down", "report_crash", "report_recovery",
            "_notify_crash", "_notify_recovery",
        )
    ],
    "wire.encode": [
        ("repro.runtime.wire", None, "encode_batch"),
        ("repro.runtime.wire", None, "dumps_frame"),
    ],
    "wire.decode": [("repro.runtime.wire", None, "loads_frame")],
    "transport.send": [("repro.runtime.transport", "TcpTransport", "send")],
    "transport.recv": [("repro.runtime.transport", "Transport", "_deliver_after_delay")],
    "loop.pump": [("repro.runtime.loop", "AsyncScheduler", "_pump")],
}


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every boundary; returns the function that restores them."""
    undo: List[Tuple[Any, str, Any]] = []
    for span_name, targets in BOUNDARIES.items():
        for module_name, class_name, attribute in targets:
            holder: Any = importlib.import_module(module_name)
            if class_name is not None:
                cls = getattr(holder, class_name)
                holder = next(k for k in cls.__mro__ if attribute in k.__dict__)
            original = holder.__dict__[attribute]
            if not callable(original):
                raise TypeError(f"{module_name}.{class_name}.{attribute} is not a plain function")
            undo.append((holder, attribute, original))
            setattr(holder, attribute, recorder.wrap(span_name, original))

    def restore() -> None:
        for holder, attribute, original in reversed(undo):
            setattr(holder, attribute, original)

    return restore
