"""Percentile, trace-derived latency and span self-time helpers on synthetic input."""

from collections import namedtuple

import pytest

from bench_e2e import derive

Ev = namedtuple("Ev", "time kind pid fields")


def ev(time, kind, pid=None, **fields):
    return Ev(time, kind, pid, fields)


def test_kind_constants_match_the_program():
    from repro import tracekinds

    for name in dir(derive):
        if name.startswith("K_"):
            assert getattr(derive, name) == getattr(tracekinds, name), name


def test_percentile_interpolates_and_tolerates_empty():
    assert derive.percentile([], 0.5) == 0.0
    assert derive.percentile([7.0], 0.9) == 7.0
    assert derive.percentile([4, 1, 3, 2], 0.5) == 2.5
    assert derive.percentile(range(11), 0.9) == 9.0
    assert derive.percentile([1, 2], 0.25) == 1.25
    assert derive.median([3, 1, 2]) == 2.0
    with pytest.raises(ValueError):
        derive.percentile([1], 1.5)


def test_sum_of_minima_takes_each_slice_from_its_fastest_rep():
    # A burst hits each rep in another slice; no whole rep is undisturbed.
    reps = [[1.0, 9.0, 3.0], [5.0, 2.0, 3.5], [1.5, 2.5, 8.0]]
    assert derive.sum_of_minima(reps) == 6.0
    assert min(sum(rep) for rep in reps) > 6.0
    assert derive.sum_of_minima([[0.25, 0.5]]) == 0.75
    with pytest.raises(ValueError):
        derive.sum_of_minima([[1.0, 2.0], [1.0]])


def test_instance_latencies_respect_window_kind_and_commit():
    events = [
        ev(1.0, "instance_start", 0, tree="a", instance="checkpoint"),
        ev(2.0, "instance_start", 1, tree="r", instance="rollback"),
        ev(3.5, "instance_commit", 0, tree="a"),
        ev(4.0, "instance_commit", 1, tree="r"),
        ev(9.0, "instance_start", 2, tree="late", instance="checkpoint"),
        ev(9.5, "instance_commit", 2, tree="late"),
        ev(5.0, "instance_start", 3, tree="never", instance="checkpoint"),
    ]
    assert derive.instance_latencies(events, (0.0, 8.0)) == [2.5]
    assert derive.instance_latencies(events, (0.0, 8.0), instance="rollback") == [2.0]
    assert derive.instance_counts(events) == {"started": 3, "committed": 2, "rollbacks": 0}


def test_tree_sizes_count_committing_members():
    events = [
        ev(1.0, "chkpt_commit", 0, seq=2, tree="a"),
        ev(1.1, "chkpt_commit", 1, seq=2, tree="a"),
        ev(1.2, "chkpt_commit", 1, seq=3, tree="b"),
        ev(1.3, "chkpt_commit", 4, seq=1, tree=None),  # recovery re-commit: no tree
    ]
    assert sorted(derive.tree_sizes(events)) == [1, 2]


def test_recovery_latency_is_recover_to_rollback_commit():
    events = [
        ev(10.0, "recover", 1),
        ev(10.0, "instance_start", 1, tree="r1", instance="rollback"),
        ev(10.2, "instance_start", 2, tree="other", instance="rollback"),  # not after a recover
        ev(10.9, "instance_commit", 2, tree="other"),
        ev(11.5, "instance_commit", 1, tree="r1"),
    ]
    assert derive.recovery_latencies(events) == [1.5]


def test_send_blocked_fraction_handles_nesting_crash_and_open_tail():
    events = [
        ev(0.0, "suspend_send", 0),
        ev(1.0, "suspend_all", 0),     # nested: still one blocked interval
        ev(2.0, "resume_all", 0),
        ev(4.0, "resume_send", 0),     # blocked 0..4
        ev(1.0, "suspend_send", 1),
        ev(3.0, "crash", 1),           # blocked 1..3, suspension lost
        ev(8.0, "suspend_send", 2),    # never resumes: blocked 8..10
    ]
    assert derive.send_blocked_fraction(events, pids=4, horizon=10.0) == pytest.approx(8.0 / 40.0)
    assert derive.send_blocked_fraction([], pids=4, horizon=0.0) == 0.0


def test_job_latency_needs_a_tentative_taken_after_completion():
    events = [
        ev(1.0, "job_submit", 0, job="j0", stages=[1]),
        ev(1.5, "chkpt_tentative", 0, seq=2, tree="a"),   # before completion: cannot cover it
        ev(2.0, "job_done", 0, job="j0"),
        ev(2.5, "chkpt_commit", 0, seq=2, tree="a"),
        ev(3.0, "chkpt_tentative", 0, seq=3, tree="b"),
        ev(3.2, "chkpt_abort", 0, seq=3, tree="b"),       # aborted: does not count
        ev(4.0, "chkpt_tentative", 0, seq=3, tree="c"),
        ev(4.8, "chkpt_commit", 0, seq=3, tree="c"),
        ev(5.0, "job_submit", 1, job="late", stages=[1]),
        ev(5.5, "job_done", 1, job="late"),
        ev(6.0, "job_submit", 0, job="undurable", stages=[1]),
        ev(6.5, "job_done", 0, job="undurable"),
    ]
    got = derive.job_latencies(events, submitted_before=5.0)
    assert got == {"done": [1.0], "durable": [pytest.approx(3.8)]}


def test_job_latency_uses_first_submit_and_last_completion():
    events = [
        ev(1.0, "job_submit", 0, job="j", stages=[1]),
        ev(2.0, "job_done", 0, job="j"),
        ev(2.5, "rollback", 0, to_seq=1, tree="r"),
        ev(3.0, "job_submit", 0, job="j", stages=[1]),   # resubmitted after the rollback
        ev(4.0, "job_done", 0, job="j"),
        ev(4.5, "chkpt_tentative", 0, seq=2, tree="a"),
        ev(5.0, "chkpt_commit", 0, seq=2, tree="a"),
    ]
    assert derive.job_latencies(events, 100.0) == {"done": [3.0], "durable": [4.0]}


def test_reexecuted_units_counts_repeats_only():
    events = [
        ev(1.0, "job_unit", 0, job="j", stage=0, unit=0),
        ev(1.1, "job_unit", 0, job="j", stage=0, unit=1),
        ev(2.0, "job_unit", 0, job="j", stage=0, unit=1),
        ev(2.1, "job_unit", 0, job="j", stage=0, unit=1),
        ev(2.2, "job_unit", 0, job="k", stage=0, unit=1),
    ]
    assert derive.reexecuted_units(events) == 2


def test_self_time_is_duration_minus_direct_children():
    # root [0,10] > a [1,4] > b [2,3];  root > a [5,9];  separate root [20,21]
    names = ["root", "a", "b", "a", "root"]
    starts = [0.0, 1.0, 2.0, 5.0, 20.0]
    ends = [10.0, 4.0, 3.0, 9.0, 21.0]
    parents = [-1, 0, 1, 0, -1]
    rows = derive.self_times(names, starts, ends, parents)
    assert rows["root"] == {"calls": 2, "self_s": pytest.approx(10 - 3 - 4 + 1)}
    assert rows["a"] == {"calls": 2, "self_s": pytest.approx(3 - 1 + 4)}
    assert rows["b"] == {"calls": 1, "self_s": pytest.approx(1.0)}
    assert sum(row["self_s"] for row in rows.values()) == pytest.approx(11.0)
    assert derive.self_times([], [], [], []) == {}
