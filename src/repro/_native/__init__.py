"""The three names ``bench_e2e/scenarios.py:116-146`` imports (``ensure_native``
and ``native_backends``, the only caller): nothing to build, one codec to report."""

from typing import Dict

EXTENSIONS = ()
build = None  # only ever reached once per entry of EXTENSIONS


def status() -> Dict[str, Dict[str, str]]:
    return {"wirecodec": {"backend": "interpreted"}}
