"""Kernel-less cluster of pure protocol engines for model checking.

The harness owns N engines, each with a recording host port, and the set of
in-flight messages between them.
There is no scheduler, no clock, no network model: *time* is a step counter
and *delivery* is an explicit choice.  Because the engines are sans-IO,
replaying the same choice sequence reproduces the exact same cluster state —
the property the explorer's stateless depth-first search and the
counterexample shrinker both rest on.

Choice keys are stable across interleavings:

* ``("m", src, dst, k)`` — deliver the ``k``-th message sent on the
  ``src -> dst`` channel (per-channel counters, so a message's key does not
  depend on what the *other* processes did first);
* ``("a", i)`` — fire the scenario's ``i``-th scripted initiation.

Any key order models an arbitrary non-FIFO network; FIFO is the special
case where ``("m", s, d, k)`` is always chosen before ``("m", s, d, k+1)``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import effects as FX
from repro.core import events as EV
from repro.core.engine import ProtocolConfig, ProtocolEngine
from repro.errors import SimulationError
from repro.mc.scenario import Scenario
from repro.net.message import Envelope
from repro.sim.trace import Trace
from repro.types import ProcessId

#: A choice key — see module docstring.
ChoiceKey = Tuple[Any, ...]


class _RecordingHost:
    """One engine's host port: every output becomes data the explorer sees —
    a send joins the in-flight set, a trace event the cluster trace."""

    def __init__(self, harness: "ClusterHarness", pid: ProcessId) -> None:
        self.harness = harness
        self.pid = pid

    def send(self, envelope: Envelope) -> None:
        counts = self.harness._channel_counts
        k = counts.get((envelope.src, envelope.dst), 0)
        counts[(envelope.src, envelope.dst)] = k + 1
        self.harness.in_flight[("m", envelope.src, envelope.dst, k)] = envelope

    def trace(self, kind: str, fields: Dict[str, Any]) -> None:
        self.harness.trace.record(float(self.harness.step), kind, pid=self.pid, **fields)


class ClusterHarness:
    """N pure engines + the in-flight message set; one step per choice."""

    def __init__(
        self,
        scenario: Scenario,
        engine_class: Optional[Callable[..., ProtocolEngine]] = None,
    ) -> None:
        self.scenario = scenario
        cls = engine_class or ProtocolEngine
        # No checkpoint timer: every initiation is an explicit choice, so
        # the explorer controls *all* nondeterminism.
        config = ProtocolConfig(checkpoint_interval=None)
        self._engine_class = cls
        self._config = config
        self.engines: Dict[ProcessId, ProtocolEngine] = {}
        self.in_flight: Dict[ChoiceKey, Envelope] = {}
        self._channel_counts: Dict[Tuple[ProcessId, ProcessId], int] = {}
        self._pending_actions: Dict[int, Tuple[ProcessId, str]] = dict(
            enumerate(scenario.actions)
        )
        self.step = 0
        self.trace = Trace()  # real trace, so the analysis layer applies as-is
        for pid in range(scenario.n):
            self._add_engine(pid)

        peers = tuple(range(scenario.n))
        for pid in sorted(self.engines):
            self.engines[pid].handle(EV.Start(peers=peers, at=0.0))
        for src, dst, payload in scenario.setup:
            self.engines[src].handle(EV.AppSend(dst=dst, payload=payload, at=0.0))

    # ------------------------------------------------------------------
    # Choices
    # ------------------------------------------------------------------
    def enabled(self) -> List[ChoiceKey]:
        """Every currently executable choice, in deterministic order."""
        keys: List[ChoiceKey] = sorted(self.in_flight)
        keys.extend(("a", i) for i in sorted(self._pending_actions))
        return keys

    def is_enabled(self, key: ChoiceKey) -> bool:
        if key[0] == "a":
            return key[1] in self._pending_actions
        return key in self.in_flight

    def target(self, key: ChoiceKey) -> ProcessId:
        """The process a choice mutates — the commutation criterion."""
        if key[0] == "a":
            return self._pending_actions[key[1]][0]
        return key[2]  # ("m", src, dst, k)

    def execute(self, key: ChoiceKey) -> None:
        self.step += 1
        at = float(self.step)
        if key[0] == "a":
            pid, op = self._pending_actions.pop(key[1])
            if op == "join":
                self._join(pid, at)
                return
            event = (
                EV.InitiateCheckpoint(at=at)
                if op == "checkpoint"
                else EV.InitiateRollback(at=at)
            )
            self.engines[pid].handle(event)
        else:
            envelope = self.in_flight.pop(key)
            self.engines[envelope.dst].handle(EV.Deliver(envelope=envelope, at=at))

    def _add_engine(self, pid: ProcessId) -> None:
        engine = self.engines[pid] = self._engine_class(pid, config=self._config)
        engine.host = _RecordingHost(self, pid)
        engine._sink = self._apply

    def _join(self, pid: ProcessId, at: float) -> None:
        """Admit a new engine mid-exploration (the membership plane's
        view-change, collapsed to one atomic choice as the kernel front
        doors make it)."""
        self._add_engine(pid)
        peers = tuple(sorted(self.engines))
        self.trace.record(at, "join", pid=pid, epoch=len(self.engines))
        self.engines[pid].handle(EV.Start(peers=peers, at=at))
        for other in sorted(self.engines):
            if other != pid:
                self.engines[other].handle(EV.Join(pid=pid, peers=peers, at=at))

    @property
    def quiescent(self) -> bool:
        """No choice left: every message delivered, every action fired."""
        return not self.in_flight and not self._pending_actions

    # ------------------------------------------------------------------
    # Effect interpretation (the whole "kernel")
    # ------------------------------------------------------------------
    def _apply(self, eff: FX.Effect) -> None:
        # Timers never fire here: the checkpoint timer is disabled and the
        # failure rules (the only other timer users) are off in the
        # failure-free scenarios the explorer runs.  Nor is there a spooler
        # group to show a decision to.  Redeliver / Broadcast / Handoff need
        # failure machinery we do not model.
        if not isinstance(eff, (FX.SetTimer, FX.CancelTimer, FX.ObserveDecision)):
            raise SimulationError(f"effect not supported by the mc harness: {eff!r}")
