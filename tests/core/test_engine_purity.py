"""Lint: the sans-IO engine must not import the kernel or the live runtime.

The whole point of the engine/adapter split is that ``repro.core.engine``
(and the protocol modules it composes) can be driven by *any* host — the
discrete-event simulator, the asyncio runtime, or the model-checking
harness — so importing it must not drag in ``repro.sim`` or
``repro.runtime``.  The check runs in a fresh interpreter because this
test process has long since imported everything.
"""

import os
import subprocess
import sys

PURE_MODULES = (
    "repro.core.engine",
    "repro.core.checkpoint_protocol",
    "repro.core.rollback_protocol",
    "repro.core.recovery",
    "repro.core.events",
    "repro.core.effects",
    "repro.core.messages",
    "repro.core.membership_protocol",
    "repro.stable.checkpoint",
    "repro.stable.storage",
)

FORBIDDEN_PREFIXES = ("repro.sim", "repro.runtime")

PROBE = """
import sys
for name in {modules!r}:
    __import__(name)
bad = sorted(
    m for m in sys.modules
    if m.startswith({forbidden!r})
)
if bad:
    raise SystemExit("sans-IO purity violated; kernel modules imported: %s" % bad)
print("pure")
"""


def test_engine_modules_import_no_kernel_or_runtime():
    code = PROBE.format(modules=PURE_MODULES, forbidden=FORBIDDEN_PREFIXES)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "pure"


def test_mc_package_imports_no_runtime():
    # The model checker needs repro.sim only for the Trace container; it
    # must never touch the asyncio runtime.
    code = PROBE.format(modules=("repro.mc",), forbidden=("repro.runtime",))
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
