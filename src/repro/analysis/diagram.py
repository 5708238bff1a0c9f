"""ASCII space-time diagrams — the paper's process timing figures, live.

Figures 1-4 of the paper are hand-drawn process timing diagrams.  This
module renders the same kind of diagram from an actual trace: one lane per
process, time flowing right, with checkpoint/rollback lifecycle symbols and
suspension spans.

Symbols::

    o   tentative checkpoint          x   rollback (state restored)
    @   checkpoint committed          >   restart (new interval begins)
    #   checkpoint aborted            s/r normal message sent / received
    =   send-suspended span           ~   send+receive suspended span
    .   idle

Example (Fig. 3's scenario)::

    P1 |..s.o@..........|
    P2 |....s..o.....@..|
    P3 |..r.s....o..@...|
    P4 |.s.r......o...@.|

Use :func:`space_time` on any finished simulation's trace.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro import tracekinds as T
from repro.analysis.index import as_index
from repro.types import ProcessId

# Later entries override earlier ones when several events share a cell.
_SYMBOL_PRIORITY = [".", "=", "~", "s", "r", ">", "x", "#", "o", "@"]

_POINT_SYMBOLS = {
    T.K_SEND: "s",
    T.K_RECEIVE: "r",
    T.K_CHKPT_TENTATIVE: "o",
    T.K_CHKPT_COMMIT: "@",
    T.K_CHKPT_ABORT: "#",
    T.K_ROLLBACK: "x",
    T.K_RESTART: ">",
}


def space_time(
    trace,
    pids: Optional[Sequence[ProcessId]] = None,
    width: int = 72,
    start: Optional[float] = None,
    end: Optional[float] = None,
    legend: bool = True,
) -> str:
    """Render the trace as an ASCII space-time diagram.

    ``trace`` may be a :class:`~repro.sim.trace.Trace` or a
    :class:`~repro.analysis.index.TraceIndex`.  ``width`` is the number of
    time buckets; ``start``/``end`` clip the window (defaulting to the
    trace's extent).  When several events fall in one bucket the most
    significant symbol wins (commits over sends, etc.).
    """
    index = as_index(trace)
    events = [e for e in index.by_kind(*index.kinds()) if e.pid is not None]
    if not events:
        return "(empty trace)"
    if pids is None:
        pids = sorted({e.pid for e in events})
    t0 = start if start is not None else events[0].time
    t1 = end if end is not None else events[-1].time
    span = max(t1 - t0, 1e-9)

    def bucket(t: float) -> int:
        return min(int((t - t0) / span * (width - 1)), width - 1)

    rank = {symbol: k for k, symbol in enumerate(_SYMBOL_PRIORITY)}
    lanes: Dict[ProcessId, List[str]] = {pid: ["."] * width for pid in pids}

    # Suspension spans first (lowest priority), then point events.
    open_since: Dict[tuple, float] = {}
    spans = {T.K_SUSPEND_SEND: (T.K_RESUME_SEND, "="),
             T.K_SUSPEND_ALL: (T.K_RESUME_ALL, "~")}
    closers = {T.K_RESUME_SEND: T.K_SUSPEND_SEND,
               T.K_RESUME_ALL: T.K_SUSPEND_ALL}
    for event in events:
        if event.pid not in lanes:
            continue
        if event.kind in spans:
            open_since[(event.pid, event.kind)] = event.time
        elif event.kind in closers:
            opener = closers[event.kind]
            begun = open_since.pop((event.pid, opener), None)
            if begun is not None and not (event.time < t0 or begun > t1):
                symbol = spans[opener][1]
                for cell in range(bucket(max(begun, t0)), bucket(min(event.time, t1)) + 1):
                    if rank[lanes[event.pid][cell]] < rank[symbol]:
                        lanes[event.pid][cell] = symbol
    for (pid, opener), begun in open_since.items():  # never resumed
        symbol = spans[opener][1]
        for cell in range(bucket(max(begun, t0)), width):
            if rank[lanes[pid][cell]] < rank[symbol]:
                lanes[pid][cell] = symbol

    for event in events:
        symbol = _POINT_SYMBOLS.get(event.kind)
        if symbol is None or event.pid not in lanes:
            continue
        if event.time < t0 or event.time > t1:
            continue
        cell = bucket(event.time)
        if rank[lanes[event.pid][cell]] < rank[symbol]:
            lanes[event.pid][cell] = symbol

    label_width = max(len(f"P{pid}") for pid in pids)
    lines = [
        f"{('P' + str(pid)).rjust(label_width)} |{''.join(lanes[pid])}|"
        for pid in pids
    ]
    lines.append(
        f"{' ' * label_width}  t={t0:.1f}{' ' * max(width - 18, 1)}t={t1:.1f}"
    )
    if legend:
        lines.append(
            "legend: o tentative  @ commit  # abort  x rollback  > restart  "
            "s send  r receive  = send-suspended  ~ comm-suspended"
        )
    return "\n".join(lines)
