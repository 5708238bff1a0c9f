"""Build the native wire codec with nothing but ``cc`` + headers.

Deliberately not a setuptools build: the reference environment has no build
frontend and nothing may be installed into it, so this module shells out to
the system C compiler directly.  Each extension is one self-contained ``.c``
file compiled to ``_<name><EXT_SUFFIX>`` next to its source; the artifacts
are git-ignored (a checkout without a toolchain simply runs interpreted).

``python -m repro._native build`` is the operator entry point; the CI
``native`` job runs it with ``--require`` so a broken toolchain fails the
job instead of silently producing an interpreted "native" run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import sysconfig
from typing import Dict, List, Optional, Sequence

from repro._native import EXTENSIONS

HERE = os.path.dirname(os.path.abspath(__file__))


def ext_suffix() -> str:
    """The interpreter's extension-module suffix (e.g. ``.cpython-311-....so``)."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    return suffix if suffix else ".so"


def artifact_path(name: str) -> str:
    return os.path.join(HERE, f"_{name}{ext_suffix()}")


def source_path(name: str) -> str:
    return os.path.join(HERE, f"_{name}.c")


def find_compiler() -> Optional[str]:
    """The C compiler to use: ``$CC`` if set, else ``cc``/``gcc``/``clang``."""
    env = os.environ.get("CC")
    candidates = [env] if env else ["cc", "gcc", "clang"]
    for candidate in candidates:
        if candidate and shutil.which(candidate):
            return candidate
    return None


def toolchain_available() -> bool:
    """True when a compiler and the Python headers are both present."""
    include = sysconfig.get_path("include")
    return find_compiler() is not None and os.path.exists(
        os.path.join(include, "Python.h")
    )


def compile_command(compiler: str, source: str, out: str) -> List[str]:
    cmd = [compiler, "-O2", "-fPIC", "-shared"]
    cmd.append(f"-I{sysconfig.get_path('include')}")
    plat_include = sysconfig.get_path("platinclude")
    if plat_include and plat_include != sysconfig.get_path("include"):
        cmd.append(f"-I{plat_include}")
    if sys.platform == "darwin":  # pragma: no cover - linux container
        cmd += ["-undefined", "dynamic_lookup"]
    cmd += [source, "-o", out]
    return cmd


def build(
    names: Optional[Sequence[str]] = None, verbose: bool = False
) -> Dict[str, Dict[str, str]]:
    """Compile the requested extensions; per-extension outcome report.

    Never raises on a missing toolchain — the report says ``skipped`` and
    the runtime keeps its interpreted fallback.  A *failing* compile of an
    existing toolchain is reported as ``error`` with the compiler output
    (and any stale artifact is removed so the loader cannot pick it up).
    """
    report: Dict[str, Dict[str, str]] = {}
    compiler = find_compiler()
    for name in names or EXTENSIONS:
        if name not in EXTENSIONS:
            raise ValueError(f"unknown native extension {name!r}")
        out = artifact_path(name)
        if not toolchain_available():
            report[name] = {
                "outcome": "skipped",
                "detail": "no C compiler or Python.h on this machine",
            }
            continue
        cmd = compile_command(compiler or "cc", source_path(name), out)
        if verbose:
            print("  " + " ".join(cmd))
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            if os.path.exists(out):
                os.unlink(out)
            report[name] = {"outcome": "error", "detail": proc.stderr.strip()}
        else:
            report[name] = {"outcome": "built", "detail": out}
    return report


def clean(names: Optional[Sequence[str]] = None) -> List[str]:
    """Remove built artifacts; returns the paths removed.

    ``snapshot`` is the retired extension: an old checkout's ``.so`` must
    not outlive its source.
    """
    removed = []
    for name in names or (*EXTENSIONS, "snapshot"):
        out = artifact_path(name)
        if os.path.exists(out):
            os.unlink(out)
            removed.append(out)
    return removed
