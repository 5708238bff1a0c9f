"""The native build's contract: same bytes, honest fallback.

Two layers:

* loader/build units — always run, toolchain or not;
* native-vs-interpreted equality — byte-identical frames — skipped with a
  reason when the extension is not built.

The simulator runs no codec, so there is no whole-run A/B here: the golden
figure traces are pinned by ``tests/golden`` under whichever backend is on.
"""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import _native
from repro._native import build as B
from repro.core import messages as M
from repro.net.message import normal
from repro.runtime import wire
from repro.types import MessageId

needs_native = pytest.mark.skipif(
    not wire.native_active(),
    reason="native codec not built (no C toolchain); interpreted fallback in use",
)

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _child_env(native: bool) -> dict:
    env = dict(os.environ)
    env["REPRO_NATIVE"] = "auto" if native else "0"
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_child(code: str, native: bool) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=_child_env(native), capture_output=True, text=True, check=True,
    )
    return proc.stdout


# ----------------------------------------------------------------------
# Loader / build units (toolchain-independent)
# ----------------------------------------------------------------------
def test_status_reports_every_hot_path_and_engine_is_honest():
    report = _native.status()
    assert set(report) == {"engine", "wirecodec"}
    # The engine is never compiled in this environment; the loader must say
    # so rather than pretend.
    assert report["engine"]["backend"] == "interpreted"
    assert "mypyc" in report["engine"]["reason"]
    codec = report["wirecodec"]
    assert codec["backend"] in ("cext", "interpreted")
    if codec["backend"] == "cext":
        assert codec["abi"] == _native.NATIVE_ABI
    else:
        assert codec["reason"]


def test_build_paths_and_command_shape():
    path = B.artifact_path("wirecodec")
    assert path.endswith(B.ext_suffix())
    assert os.path.dirname(path) == os.path.dirname(os.path.abspath(B.__file__))
    assert B.source_path("wirecodec").endswith("_wirecodec.c")
    compiler = B.find_compiler()
    if compiler is not None:
        cmd = B.compile_command(
            compiler, B.source_path("wirecodec"), B.artifact_path("wirecodec")
        )
        assert "-O2" in cmd and "-shared" in cmd and "-fPIC" in cmd
        assert cmd[-1] == B.artifact_path("wirecodec")


def test_clean_also_removes_the_retired_snapshot_artifact(tmp_path, monkeypatch):
    # An old checkout's _snapshot.so must not outlive its (deleted) source.
    monkeypatch.setattr(B, "HERE", str(tmp_path))
    stale = [B.artifact_path("wirecodec"), B.artifact_path("snapshot")]
    for path in stale:
        open(path, "w").close()
    assert sorted(B.clean()) == sorted(stale)
    assert os.listdir(tmp_path) == []


def test_env_knob_forces_interpreted_mode_in_subprocess():
    out = _run_child(
        "from repro.runtime import wire\n"
        "print(wire.native_active())",
        native=False,
    )
    assert out.split() == ["False"]


@needs_native
def test_require_mode_activates_native_in_subprocess():
    env = _child_env(native=True)
    env["REPRO_NATIVE"] = "require"
    proc = subprocess.run(
        [sys.executable, "-m", "repro._native", "status", "--require", "--json"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["wirecodec"]["backend"] == "cext"
    assert "snapshot" not in report


# ----------------------------------------------------------------------
# Byte-for-byte codec equality
# ----------------------------------------------------------------------
@needs_native
def test_probe_corpus_frames_are_byte_identical():
    # The import-time self-check corpus, re-asserted explicitly: native and
    # interpreted encoders produce the same bytes, and cross-decoding agrees.
    for env in wire._probe_corpus():
        py_frame = wire._py_dumps_frame(env)
        nat_frame = wire.dumps_frame(env)
        assert nat_frame == py_frame
        blob = py_frame[wire.HEADER_SIZE:]
        nat = wire.loads_frame(blob)
        py = wire._py_loads_frame(blob)
        for attr in ("src", "dst", "category", "msg_id", "label", "send_time", "body"):
            assert getattr(nat, attr) == getattr(py, attr)
        assert type(nat.body) is type(py.body)


_payloads = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**70), max_value=2**70),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=16),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=6), children, max_size=3),
        st.sets(st.one_of(st.integers(-100, 100), st.text(max_size=6)), max_size=4),
    ),
    max_leaves=8,
)


@needs_native
@settings(max_examples=100, deadline=None)
@given(payload=_payloads, label=st.integers(0, 2**40), send_time=st.floats(0, 1e6))
def test_native_and_python_encoders_agree_on_arbitrary_payloads(
    payload, label, send_time
):
    env = normal(1, 2, MessageId(1, 7), label=label, body=M.NormalBody(payload=payload))
    env.send_time = send_time
    assert wire.dumps_frame(env) == wire._py_dumps_frame(env)
    blob = wire.dumps_frame(env)[wire.HEADER_SIZE:]
    assert wire.loads_frame(blob).body == wire._py_loads_frame(blob).body
