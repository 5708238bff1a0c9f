"""Run every reproduction experiment and print its artifact.

Usage::

    python -m repro.bench                       # everything (minutes)
    python -m repro.bench fig3 table5           # a selection
    python -m repro.bench fig2 --json out.json  # + machine-readable artifact
    python -m cProfile -o bench.pstats -m repro.bench fig3  # profiled

The printed tables are what EXPERIMENTS.md records; ``--json`` writes the
same rows (experiment name → title + row dicts) for scripted consumers.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, List, Tuple

from repro.bench import ablations as A
from repro.bench import app as APP
from repro.bench import churn as CH
from repro.bench import experiments as E
from repro.bench.harness import format_table, print_experiment, rows_to_json, write_json

# name -> (table title, thunk returning the table's rows).  Experiments that
# produce a single summary dict are wrapped into one-row tables here so every
# artifact has the same shape (a list of rows) in both ASCII and JSON form.
REGISTRY: Dict[str, Tuple[str, Callable[[], List[Dict[str, Any]]]]] = {
    "scale": ("Instance cost vs. system size", lambda: A.experiment_scale()),
    "abl-freq": ("Checkpoint frequency trade-off", lambda: A.experiment_checkpoint_frequency()),
    "abl-detect": ("Detection latency vs. blocking", lambda: A.experiment_detection_latency()),
    "abl-topology": ("Workload topology vs. tree shape", lambda: A.experiment_topology()),
    "fig1": ("Fig. 1 — inconsistency prevented", lambda: [E.experiment_fig1()]),
    "fig2": ("Fig. 2 — message labels", lambda: E.experiment_fig2()),
    "fig3": ("Fig. 3 / Example 1 — chain tree", lambda: [E.experiment_fig3()]),
    "fig4": ("Fig. 4 / Example 2 — interference", lambda: [E.experiment_fig4()]),
    "table5": ("Section 5 comparison (measured)", lambda: E.experiment_table5()),
    "minimality": ("Theorems 3/4 — minimality", lambda: [E.experiment_minimality()]),
    "concurrency": ("Concurrency scaling", lambda: E.experiment_concurrency()),
    "failures": ("Section 6 — multiple failures", lambda: [E.experiment_failures()]),
    "partition": ("Section 6 — partitioning", lambda: [E.experiment_partition()]),
    "nonfifo": ("Non-FIFO channels", lambda: [E.experiment_nonfifo()]),
    "extension": ("Section 3.5.3 extension", lambda: E.experiment_extension()),
    "domino": ("Domino effect (motivation)", lambda: E.experiment_domino()),
    "eapp": ("E-APP — checkpoint-as-a-service job workload", lambda: APP.experiment_app()),
    "echurn": ("E-CHURN — checkpointing under membership churn", lambda: CH.experiment_churn()),
}


def format_registry() -> str:
    """One line per experiment: key + its table title (the description)."""
    width = max(len(name) for name in REGISTRY)
    return "\n".join(
        f"  {name:<{width}}  {title}" for name, (title, _) in sorted(REGISTRY.items())
    )


def run_experiment(name: str) -> Tuple[str, List[Dict[str, Any]]]:
    """Run one registered experiment; returns its table title and rows."""
    title, thunk = REGISTRY[name]
    return title, thunk()


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run reproduction experiments and print their artifacts.",
    )
    parser.add_argument(
        "names", nargs="*", metavar="EXPERIMENT",
        help="experiments to run (default: all)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the artifacts as JSON to PATH",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list available experiments with one-line descriptions and exit",
    )
    args = parser.parse_args(argv)
    if args.list:
        print("available experiments:")
        print(format_registry())
        return 0

    names = args.names or list(REGISTRY)
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        print(
            "unknown experiment(s): "
            + ", ".join(repr(n) for n in unknown)
            + "\navailable experiments:"
        )
        print(format_registry())
        return 2
    if args.json is not None:
        # Fail on an unwritable path now, not after minutes of experiments.
        try:
            with open(args.json, "w", encoding="utf-8"):
                pass
        except OSError as error:
            print(f"cannot write --json file {args.json}: {error}")
            return 2

    artifacts: Dict[str, Dict[str, Any]] = {}
    for name in names:
        title, rows = run_experiment(name)
        print_experiment(name, format_table(rows, title=title))
        artifacts[name] = {"title": title, "rows": rows_to_json(rows)}
    if args.json is not None:
        write_json(args.json, artifacts)
        print(f"wrote JSON artifacts for {len(artifacts)} experiment(s) to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
