#!/usr/bin/env python3
"""Print the public surface of Python modules, from their ``ast`` alone.

Per module: its public top-level names — the literal ``__all__`` when the
module has one, else every top-level class, function and assigned name that
does not start with an underscore (imports are not definitions).  Per public
class defined in the module: the number of settable options, i.e. ``__init__``
parameters besides ``self`` (``*args``/``**kwargs`` count one each), or the
annotated fields of a ``@dataclass``; a class that inherits its constructor
shows ``-`` and adds nothing.  The last two lines total each — the public-name
and option counts CHANGES.md quotes before -> after for subtraction PRs.

    python3 tools/surface.py src/repro/runtime src/repro/failure
    python3 tools/surface.py src/repro/runtime/shard.py

With ``--unreferenced`` it lists instead the public top-level names those
modules *define* that nothing refers to: no whole-word occurrence in the code
of any ``.py`` file under ``src tests examples bench_e2e benchmarks tools``
outside the defining statement itself.  A package ``__init__.py`` that
imports a name and lists it in ``__all__`` only re-exports it: those two
mentions are not references.  Code means every token but comments
and docstrings (a name that only prose mentions is not referenced); other
string literals count, since boundary tables and ``getattr`` name things that
way.  Exit status 1 when the list is not empty.

    python3 tools/surface.py --unreferenced src
"""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from code_lines import code_tokens  # sibling script: tools/ is sys.path[0]


def _literal_all(tree: ast.Module) -> Optional[List[str]]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            try:
                return [str(name) for name in ast.literal_eval(node.value)]
            except ValueError:
                return None
    return None


def _definitions(tree: ast.Module) -> Iterator[Tuple[str, ast.stmt]]:
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _defined(tree: ast.Module) -> Iterator[str]:
    return (name for name, _ in _definitions(tree))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def options(node: ast.ClassDef) -> Optional[int]:
    """Settable constructor options of a class, or None if it defines none."""
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            args = item.args
            named = len(args.posonlyargs) + len(args.args) + len(args.kwonlyargs) - 1
            return named + (args.vararg is not None) + (args.kwarg is not None)
    if _is_dataclass(node):
        return sum(
            1 for item in node.body
            if isinstance(item, ast.AnnAssign) and "ClassVar" not in ast.dump(item.annotation)
        )
    return None


def surface(path: Path) -> Tuple[List[str], Dict[str, Optional[int]]]:
    """One module's public names, and ``class -> options`` for those of them
    that are classes defined in it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = _literal_all(tree)
    if names is None:
        names = [name for name in _defined(tree) if not name.startswith("_")]
    names = list(dict.fromkeys(names))
    classes = {
        node.name: options(node)
        for node in tree.body if isinstance(node, ast.ClassDef) and node.name in names
    }
    return names, classes


#: Where a reference to a public name may live.
SEARCH_ROOTS = ("src", "tests", "examples", "bench_e2e", "benchmarks", "tools")


def _python_files(args: List[str]) -> List[Path]:
    paths: List[Path] = []
    for arg in args:
        root = Path(arg)
        paths.extend(sorted(root.rglob("*.py")) if root.is_dir() else [root])
    return paths


def _reexports(path: Path) -> Tuple[Set[str], List[Tuple[int, int]]]:
    """For a package ``__init__.py``: the names it imports *and* lists in
    ``__all__``, and the line spans of those imports and of ``__all__``.
    A re-export there names the definition; it does not use it."""
    if path.name != "__init__.py":
        return set(), []
    tree = ast.parse(path.read_text(), filename=str(path))
    listed = set(_literal_all(tree) or ())
    imported: Set[str] = set()
    spans: List[Tuple[int, int]] = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name for alias in node.names)
            spans.append((node.lineno, node.end_lineno))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            spans.append((node.lineno, node.end_lineno))
    return imported & listed, spans


def _reference_words(path: Path) -> Iterator[str]:
    names, spans = _reexports(path)
    for tok in code_tokens(path):
        in_span = any(lo <= tok.start[0] <= hi for lo, hi in spans)
        for word in re.findall(r"\w+", tok.string):
            if not (in_span and word in names):
                yield word


def unreferenced(paths: List[Path]) -> List[str]:
    """``path: name`` for each public top-level name defined in ``paths``
    that occurs nowhere under :data:`SEARCH_ROOTS` but in its own definition
    and its package re-exports."""
    words = Counter(
        word for path in _python_files(list(SEARCH_ROOTS)) for word in _reference_words(path)
    )
    found: List[str] = []
    for path in paths:
        tokens = list(code_tokens(path))
        for name, node in _definitions(ast.parse(path.read_text(), filename=str(path))):
            own = sum(
                re.findall(r"\w+", tok.string).count(name)
                for tok in tokens if node.lineno <= tok.start[0] <= node.end_lineno
            )
            if not name.startswith("_") and words[name] == own:
                found.append(f"{path}: {name}")
    return found


def main(argv: List[str]) -> int:
    if argv[1:2] == ["--unreferenced"]:
        found = unreferenced(_python_files(argv[2:] or ["src"]))
        print("\n".join(found) if found else "every public top-level name is referenced")
        return 1 if found else 0
    paths = _python_files(argv[1:] or ["src"])
    total_names = total_classes = total_options = 0
    for path in paths:
        names, classes = surface(path)
        shown = [
            f"{name}({'-' if classes[name] is None else classes[name]})"
            if name in classes else name
            for name in names
        ]
        print(f"{len(names):4d}  {path}: {' '.join(shown)}")
        total_names += len(names)
        total_classes += len(classes)
        total_options += sum(count or 0 for count in classes.values())
    print(f"{total_names:4d}  total public names")
    print(f"{total_options:4d}  total __init__ parameters over {total_classes} public classes")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
