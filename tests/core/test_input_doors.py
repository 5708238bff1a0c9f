"""The engine's two input doors are one.

The kernel adapter applies the five per-message inputs by stamping the
environment (``engine.stamp``) and calling the engine method that does the
work; ``handle(EV.*)`` takes the same inputs as data and dispatches to those
same methods.  Two three-engine clusters are driven through one seeded input
sequence — app sends, app ops, local steps, deliveries in any order, timer
firings, a crash and a recovery — one through each door, and must produce the
same host calls, the same effects and the same stable storage.
"""

import random

from repro.app.state import AppHost
from repro.core import effects as FX
from repro.core import events as EV
from repro.core.engine import ProtocolConfig, ProtocolEngine
from repro.stable.snapshot import thaw

N = 3
CONFIG = ProtocolConfig(checkpoint_interval=5.0, failure_resilience=True)


class RecordingHost:
    """A host port that keeps every per-message output as data."""

    def __init__(self):
        self.calls = []

    def send(self, envelope):
        self.calls.append(("send", envelope))

    def trace(self, kind, fields):
        self.calls.append(("trace", kind, dict(fields)))


def handle_door(engine, at, views, kind, *args):
    event = {
        "deliver": lambda env: EV.Deliver(envelope=env, at=at, down=views[0], status_down=views[1]),
        "timer": lambda name: EV.TimerFired(name=name, at=at, down=views[0], status_down=views[1]),
        "app_send": lambda dst, payload: EV.AppSend(dst=dst, payload=payload, at=at),
        "local_step": lambda: EV.LocalStep(at=at),
        "app_op": lambda op: EV.AppOp(op=op, at=at),
    }[kind](*args)
    engine.handle(event)


def typed_door(engine, at, views, kind, *args):
    if kind in ("deliver", "timer"):
        engine.stamp(at, *views)
    else:
        engine.stamp(at)
    {
        "deliver": engine.on_envelope,
        "timer": engine._on_timer_fired,
        "app_send": engine.send_app_message,
        "local_step": engine.local_step,
        "app_op": engine.apply_app_op,
    }[kind](*args)


def drive(door, seed, steps=400):
    """One seeded run; returns everything the cluster put out or stored."""
    rng = random.Random(seed)
    hosts = {pid: RecordingHost() for pid in range(N)}
    effects = {pid: [] for pid in range(N)}
    engines = {}
    clock = [0.0]

    def sink(pid, effect):
        effects[pid].append(effect)
        if isinstance(effect, FX.Redeliver):  # synchronous, mid-input, like the kernels
            door(engines[pid], clock[0], (frozenset(), ()), "deliver", effect.envelope)

    for pid in range(N):
        engine = engines[pid] = ProtocolEngine(pid, config=CONFIG, app=AppHost(pid))
        engine.host = hosts[pid]
        engine._sink = lambda effect, pid=pid: sink(pid, effect)
        engine.handle(EV.Start(peers=tuple(range(N)), at=0.0))
    delivered = {pid: 0 for pid in range(N)}  # host sends already taken in flight
    in_flight, spooled, down, jobs = [], [], set(), 0
    crash_at, recover_at = steps // 3, steps // 2

    for step in range(1, steps + 1):
        at = clock[0] = float(step)
        views = (frozenset(down), tuple(sorted(down)))
        if step == crash_at:
            down.add(1)
            engines[1].handle(EV.Fail(at=at))
            for pid in (0, 2):
                engines[pid].handle(
                    EV.FailureNotice(pid=1, at=at, down=frozenset(down), status_down=(1,))
                )
        elif step == recover_at:
            down.discard(1)
            spooled += [env for env in in_flight if env.dst == 1]
            in_flight = [env for env in in_flight if env.dst != 1]
            engines[1].handle(
                EV.Recover(at=at, down=frozenset(), status_down=(), spooled=tuple(spooled))
            )
        else:
            pid = rng.randrange(N)
            choice = rng.randrange(8)
            timers = sorted(engines[pid]._timer_actions)
            if choice == 0:
                door(engines[pid], at, views, "app_send", (pid + 1 + rng.randrange(N - 1)) % N, step)
            elif choice == 1:
                jobs += 1
                door(engines[pid], at, views, "app_op", ("submit", f"j{jobs}", (1, 2)))
            elif choice == 2:
                door(engines[pid], at, views, "app_op", ("unit", f"j{rng.randrange(jobs + 1)}"))
            elif choice == 3:
                door(engines[pid], at, views, "local_step")
            elif choice == 4 and timers:
                door(engines[pid], at, views, "timer", rng.choice(timers))
            elif in_flight:
                envelope = in_flight.pop(rng.randrange(len(in_flight)))
                if envelope.dst in down:
                    spooled.append(envelope)
                else:
                    door(engines[envelope.dst], at, views, "deliver", envelope)
        for pid, host in hosts.items():
            sent = [call[1] for call in host.calls if call[0] == "send"]
            in_flight.extend(sent[delivered[pid]:])
            delivered[pid] = len(sent)

    storage = {
        pid: {
            key: (thaw(engine.storage.get(key)), thaw(engine.storage.read_log(key)))
            for key in engine.storage.keys()
        }
        for pid, engine in engines.items()
    }
    return {pid: host.calls for pid, host in hosts.items()}, effects, storage


def test_handle_and_typed_inputs_are_the_same_door():
    trace_kinds, effect_kinds = set(), set()
    for seed in range(6):
        via_handle = drive(handle_door, seed)
        via_typed = drive(typed_door, seed)
        assert via_typed[0] == via_handle[0], seed  # host calls, per engine, in order
        assert via_typed[1] == via_handle[1], seed  # the cold effects
        assert via_typed[2] == via_handle[2], seed  # stable storage
        calls, effects, _storage = via_handle
        trace_kinds |= {c[1] for pid in calls for c in calls[pid] if c[0] == "trace"}
        effect_kinds |= {type(e) for pid in effects for e in effects[pid]}
    # The sequences exercised what the docstring claims.
    assert {"send", "receive", "ctrl_send", "ctrl_receive", "job_unit", "rollback"} <= trace_kinds
    assert {FX.SetTimer, FX.ObserveDecision, FX.Redeliver, FX.Broadcast} <= effect_kinds


def test_handle_returns_the_effects_the_sink_saw():
    engine = ProtocolEngine(0, config=CONFIG)
    seen = []
    engine._sink = seen.append
    returned = engine.handle(EV.Start(peers=(0, 1), at=0.0))
    assert returned == seen
    assert [type(e) for e in returned] == [FX.SetTimer]
