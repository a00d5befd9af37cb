"""Print each statement of ``src/dcpreg`` that no test runs.

The suite runs in this process under ``sys.settrace``; only frames whose
code lives in ``src/dcpreg`` are traced line by line. Every simple
statement (not a ``def``, ``class``, ``if``, loop, ``with`` or ``try``
header, nor a docstring) that no line event reached is printed as
``path:line``, and a count goes to stderr. Arguments go to pytest; with
none it runs the configured test paths. Run from the repository root:

    python scripts/untested_lines.py [pytest arguments]

Tracing makes the suite run about three times slower.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dcpreg"


def statements(path: Path) -> list[tuple[int, int]]:
    """The first and last line of each simple statement of ``path`` that
    compiles to code."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant) and isinstance(node.body[0].value.value, str)
    }
    return [
        (node.lineno, node.end_lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and not hasattr(node, "body") and id(node) not in docstrings
        and not isinstance(node, (ast.Global, ast.Nonlocal))
        and not (isinstance(node, ast.AnnAssign) and node.value is None)
    ]


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    hit: dict[Path, set[int]] = {path: set() for path in PACKAGE.glob("*.py")}
    by_name: dict[str, set[int] | None] = {}

    def lines_of(frame):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = hit.get(Path(name).resolve())
        return by_name[name]

    def trace_lines(frame, event, arg):
        if event == "line":
            lines_of(frame).add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if lines_of(frame) is not None else None

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for path in sorted(hit):
        for first, last in sorted(statements(path)):
            total += 1
            if hit[path].isdisjoint(range(first, last + 1)):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}")
    print(f"{missed} of {total} statements under {PACKAGE.relative_to(ROOT)} ran in no test", file=sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
