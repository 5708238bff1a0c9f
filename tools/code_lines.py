#!/usr/bin/env python3
"""Count code lines under a tree (default ``src/``) with ``tokenize``.

A line counts when it carries at least one token that is not a comment, a
blank/newline, indentation, or part of a docstring (a string expression
statement).  Prints one ``<lines>  <path>`` row per ``*.py`` file and the
total last — the number CHANGES.md quotes before -> after for subtraction
PRs.

    python3 tools/code_lines.py            # src/
    python3 tools/code_lines.py src/repro/core
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path
from typing import Iterator, Set

_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_tokens(path: Path) -> Iterator[tokenize.TokenInfo]:
    """Every token of ``path`` that is code: no comment, no docstring."""
    with open(path, "rb") as handle:
        statement_start = True  # is the next token the first of a statement?
        for tok in tokenize.tokenize(handle.readline):
            if tok.type in _SKIP:
                if tok.type == tokenize.NEWLINE:
                    statement_start = True
                continue
            docstring = tok.type == tokenize.STRING and statement_start
            statement_start = False
            if not docstring:
                yield tok


def code_lines(path: Path) -> int:
    lines: Set[int] = set()
    for tok in code_tokens(path):
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
