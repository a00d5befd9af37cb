"""Every name that ``src/dcpreg`` defines is reached by the program itself.

A module-level function or class, or a public method, must be named
somewhere outside its own definition in ``src/``, ``benchmark/`` or
``scripts/`` (their tests aside), or be re-exported by
``dcpreg/__init__.py``. A name only tests call belongs with the tests, in
``tests/reference_forms.py``. A name counts as named where code reads it,
or where a string holds exactly that name, as ``benchmark/tracing.OPS``
names the tape primitives it patches.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dcpreg"


def program_files():
    for folder in (PACKAGE, ROOT / "benchmark", ROOT / "scripts"):
        yield from (p for p in sorted(folder.rglob("*.py")) if not p.name.startswith("test_"))


def mentions(node):
    """Each identifier read under ``node``, or held whole by a string."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            yield sub.value


def definitions(tree):
    """``(shown name, name, node)`` for each module-level function or class
    of ``tree`` and each public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def unreached_names():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in program_files()}
    named = Counter(name for tree in trees.values() for name in mentions(tree))
    exported = {
        alias.asname or alias.name
        for node in trees[PACKAGE / "__init__.py"].body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return [
        f"{path.stem}.{shown}"
        for path, tree in trees.items() if path.parent == PACKAGE
        for shown, name, node in definitions(tree)
        if name not in exported and named[name] == Counter(mentions(node))[name]
    ]


def test_every_source_name_is_reached_outside_tests():
    assert unreached_names() == []
