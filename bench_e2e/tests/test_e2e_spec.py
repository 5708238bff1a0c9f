"""BENCHMARK.json is generated from spec.py and stays inside the driver's limits."""

import json
import os
import re

from bench_e2e import spec

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_is_what_spec_generates():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == spec.benchmark_json()


def test_spec_is_inside_the_contract():
    doc = spec.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(m["better"] in ("lower", "higher") for m in doc["end_to_end"] + doc["per_layer"])
    assert all("\n" not in w["why"] and len(w["why"]) <= 200 for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in doc["end_to_end"])}]
    assert len(json.dumps(doc)) < 64 * 1024
    # 4 + 22 runs per workload must fit the driver's total budget.
    assert (4 + 22 * len(doc["workloads"])) * (doc["run_seconds"] + 12) < 3420


def test_exact_counts_are_per_layer_metrics():
    assert set(spec.EXACT_ON_SIM) <= set(spec.PER_LAYER_UNITS)
