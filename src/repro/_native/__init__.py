"""Loader for the optional native (compiled) wire codec.

The wire codec is pure (no kernel or IO imports), so it can be swapped for a
compiled version without touching any caller.  This package is the single
place that swap happens:

* ``build`` (``python -m repro._native build``) compiles the one hand-written
  CPython extension in this directory — ``_wirecodec.c``, the binary
  envelope codec — using only a C compiler and the Python headers.
  mypyc/Cython were the first candidates, but the reference container ships
  neither (and nothing may be pip-installed there), so the native layer is
  written directly against the CPython API; the build needs exactly ``cc`` +
  ``Python.h``.  The engine event loop stays interpreted: compiling it means
  compiling the whole protocol stack, which needs the mypyc toolchain — the
  loader reports it as a fallback rather than pretending (see DESIGN.md §14).
* ``load`` imports a compiled module if present and ABI-compatible, else
  returns ``None`` — the consumer keeps its interpreted implementation.
  Selection is controlled by ``REPRO_NATIVE``:

  ==========  =========================================================
  value       meaning
  ==========  =========================================================
  (unset)     *auto* — use compiled modules when built, else interpreted
  ``0``/off   force interpreted even when compiled modules exist
  ``1``/on    same as auto (explicit opt-in)
  require     fail loudly if a compiled module is missing (CI's native
              job runs under this so a silent fallback can't pass as a
              compiled run)
  ==========  =========================================================

Correctness is gated the same way PR 5 gated the engine extraction: the
compiled and interpreted codecs must produce identical wire frames
(``tests/native``), and the consumer runs a self-check probe at import time
before trusting a compiled module.
"""

from __future__ import annotations

import importlib
import os
from typing import Any, Dict, Optional

#: Bumped whenever the Python<->C interface of any extension changes; a
#: compiled module with a different ABI is ignored (stale build on disk).
NATIVE_ABI = 3

#: name -> imported module (or None after a failed/disabled load).
_MODULES: Dict[str, Optional[Any]] = {}
#: name -> human-readable reason the native module is not in use.
_FALLBACK_REASONS: Dict[str, str] = {}

#: Extension modules this package knows how to build/load.
EXTENSIONS = ("wirecodec",)


def mode() -> str:
    """The requested native mode: ``auto``, ``off`` or ``require``."""
    raw = os.environ.get("REPRO_NATIVE", "").strip().lower()
    if raw in ("", "1", "on", "auto", "yes"):
        return "auto"
    if raw in ("0", "off", "no", "false"):
        return "off"
    if raw == "require":
        return "require"
    raise RuntimeError(
        f"unknown REPRO_NATIVE value {raw!r} (use 0/1/auto/require)"
    )


def load(name: str) -> Optional[Any]:
    """The compiled extension ``name``, or ``None`` with a recorded reason.

    Never raises in ``auto``/``off`` mode: a missing or stale build simply
    keeps the interpreted implementation.  In ``require`` mode a missing
    module is an error — that is what makes the CI native job trustworthy.
    """
    if name in _MODULES:
        return _MODULES[name]
    if name not in EXTENSIONS:
        raise ValueError(f"unknown native extension {name!r} (have {EXTENSIONS})")
    current = mode()
    if current == "off":
        _FALLBACK_REASONS[name] = "disabled by REPRO_NATIVE=0"
        _MODULES[name] = None
        return None
    module: Optional[Any]
    try:
        module = importlib.import_module(f"repro._native._{name}")
        abi = getattr(module, "NATIVE_ABI", None)
        if abi != NATIVE_ABI:
            raise ImportError(
                f"compiled ABI {abi} != expected {NATIVE_ABI} "
                "(stale build; rerun `python -m repro._native build`)"
            )
    except ImportError as exc:
        if current == "require":
            raise RuntimeError(
                f"REPRO_NATIVE=require but native module {name!r} is "
                f"unavailable: {exc}"
            ) from exc
        _FALLBACK_REASONS[name] = str(exc)
        module = None
    _MODULES[name] = module
    return module


def reject(name: str, reason: str) -> None:
    """Mark a loaded extension as unusable (a consumer's self-check failed).

    The consumer keeps its interpreted implementation; ``status`` reports
    why.  In ``require`` mode a rejected probe raises instead — a compiled
    build that cannot reproduce the interpreted bytes must never pass CI.
    """
    if mode() == "require":
        raise RuntimeError(f"native module {name!r} failed its self-check: {reason}")
    _MODULES[name] = None
    _FALLBACK_REASONS[name] = f"self-check failed: {reason}"


def status() -> Dict[str, Dict[str, Any]]:
    """Per-hot-path backend report.

    The engine row is always interpreted for now — honest fallback until a
    mypyc-capable toolchain lands — so the report names the gate instead of
    hiding the row.
    """
    report: Dict[str, Dict[str, Any]] = {}
    for name in EXTENSIONS:
        module = load(name)
        if module is not None:
            report[name] = {"backend": "cext", "abi": NATIVE_ABI}
        else:
            report[name] = {
                "backend": "interpreted",
                "reason": _FALLBACK_REASONS.get(name, "not built"),
            }
    report["engine"] = {
        "backend": "interpreted",
        "reason": "engine compilation requires the mypyc toolchain "
        "(not available; see DESIGN.md §14)",
    }
    return report


__all__ = ["EXTENSIONS", "NATIVE_ABI", "load", "mode", "reject", "status"]
