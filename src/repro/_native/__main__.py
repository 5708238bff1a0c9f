"""CLI for the native build: ``python -m repro._native build|status|clean``."""

from __future__ import annotations

import argparse
import json
import sys
from typing import List


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro._native",
        description="Build, inspect or remove the compiled hot-path modules.",
    )
    parser.add_argument(
        "action", choices=("build", "status", "clean"), help="what to do"
    )
    parser.add_argument(
        "--require",
        action="store_true",
        help="exit non-zero unless every extension builds (CI native job)",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    args = parser.parse_args(argv)

    from repro._native import build as B

    if args.action == "clean":
        removed = B.clean()
        print(json.dumps(removed) if args.json else f"removed {len(removed)} artifact(s)")
        return 0

    if args.action == "build":
        report = B.build(verbose=not args.json)
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            for name, row in report.items():
                print(f"  {name:<10} {row['outcome']}: {row['detail']}")
        if args.require and any(r["outcome"] != "built" for r in report.values()):
            print("--require: native build incomplete", file=sys.stderr)
            return 1
        return 0

    # status: importing the consumer wires (and self-checks) the extension.
    import repro.runtime.wire  # noqa: F401
    from repro._native import status

    report = status()
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for name, row in report.items():
            detail = row.get("reason", f"abi={row.get('abi')}")
            print(f"  {name:<10} {row['backend']}: {detail}")
    if args.require and any(
        row["backend"] != "cext" for name, row in report.items() if name != "engine"
    ):
        print("--require: native modules not active", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
