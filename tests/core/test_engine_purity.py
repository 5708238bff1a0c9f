"""Lint: the sans-IO engine must not import the kernel or the live runtime.

The whole point of the engine/adapter split is that ``repro.core.engine``
(and the protocol modules it composes) can be driven by *any* host — the
discrete-event simulator, the asyncio runtime, or the model-checking
harness — so importing it must not drag in ``repro.sim`` or
``repro.runtime``.  The check runs in a fresh interpreter because this
test process has long since imported everything.

For the same reason every module under ``src/repro`` must be importable as
the *first* import of a fresh interpreter: an import cycle only shows to
whoever enters it at the wrong module (``net.delay`` -> ``sim.rng`` ->
``sim/__init__`` -> ``sim.simulation`` -> ``net.network`` did, for two
modules, until it was broken).
"""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

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


SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src"))


def run_fresh(code):
    """``code`` in a new interpreter that has imported nothing of ours yet."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)


def test_engine_modules_import_no_kernel_or_runtime():
    proc = run_fresh(PROBE.format(modules=PURE_MODULES, forbidden=FORBIDDEN_PREFIXES))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "pure"


def test_mc_package_imports_no_runtime():
    # The model checker needs repro.sim only for the Trace container; it
    # must never touch the asyncio runtime.
    proc = run_fresh(PROBE.format(modules=("repro.mc",), forbidden=("repro.runtime",)))
    assert proc.returncode == 0, proc.stderr


def every_module():
    for folder, _dirs, files in os.walk(os.path.join(SRC, "repro")):
        for name in files:
            if name.endswith(".py"):
                path = os.path.relpath(os.path.join(folder, name), SRC)[: -len(".py")]
                yield path.replace(os.sep, ".").replace(".__init__", "")


def test_every_module_imports_first_in_a_fresh_interpreter():
    modules = sorted(every_module())
    assert "repro.net.delay" in modules and "repro.core" in modules and len(modules) > 90
    with ThreadPoolExecutor(max_workers=2) as pool:  # the work is in the child processes
        procs = pool.map(lambda module: run_fresh(f"import {module}"), modules)
    failed = {
        module: proc.stderr.strip().splitlines()[-1]
        for module, proc in zip(modules, procs)
        if proc.returncode != 0
    }
    assert not failed, failed
