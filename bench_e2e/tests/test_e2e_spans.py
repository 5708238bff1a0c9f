"""The span recorder and the boundary table."""

import pytest

from bench_e2e import scenarios, spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_wrappers_give_self_time_and_parent_links():
    clock = FakeClock()
    recorder = spans.SpanRecorder(clock=clock)

    def leaf():
        clock.now += 2.0

    leaf = recorder.wrap("leaf", leaf)

    def outer():
        clock.now += 1.0
        leaf()
        leaf()
        clock.now += 0.5

    outer = recorder.wrap("outer", outer)
    outer()
    assert list(recorder.parents) == [-1, 0, 0]
    assert recorder.stack == []
    rows = recorder.self_times()
    assert rows["outer"] == {"calls": 1, "self_s": pytest.approx(1.5)}
    assert rows["leaf"] == {"calls": 2, "self_s": pytest.approx(4.0)}


def test_window_excludes_spans_opened_outside_it():
    clock = FakeClock()
    recorder = spans.SpanRecorder(clock=clock)

    def work():
        clock.now += 1.0

    work = recorder.wrap("work", work)
    work()
    lo = recorder.mark()
    work()
    work()
    hi = recorder.mark()
    work()
    assert recorder.self_times(lo, hi)["work"] == {"calls": 2, "self_s": pytest.approx(2.0)}


def test_a_raising_call_still_closes_its_span():
    clock = FakeClock()
    recorder = spans.SpanRecorder(clock=clock)

    def boom():
        clock.now += 3.0
        raise KeyError("x")

    boom = recorder.wrap("boom", boom)
    with pytest.raises(KeyError):
        boom()
    assert recorder.stack == []
    assert recorder.self_times()["boom"]["self_s"] == pytest.approx(3.0)


def test_every_boundary_resolves_and_restores():
    from repro.core.engine import ProtocolEngine
    from repro.runtime import wire

    before_handle, before_batch = ProtocolEngine.handle, wire.encode_batch
    restore = spans.install(spans.SpanRecorder())
    try:
        assert ProtocolEngine.handle is not before_handle
        assert wire.encode_batch.__wrapped__ is before_batch
    finally:
        restore()
    assert ProtocolEngine.handle is before_handle
    assert wire.encode_batch is before_batch


def test_expected_spans_name_real_boundaries():
    for hit, never in scenarios.EXPECTED_SPANS.values():
        assert hit | never <= set(spans.BOUNDARIES)
        assert not hit & never
