"""Every module-level function, class and assigned name of the package, and
every method and property of its classes, has a caller.

A definition counts as used when its name appears outside its own body, as
a name, an attribute or an exact string (``perfbench`` wraps functions by
name), in ``src/harmonizer``, ``scripts`` or ``perfbench``. Tests do not
count: code that only tests call belongs with the tests. Dunder methods and
overrides of a standard-library base's methods are called by Python itself.
"""

from __future__ import annotations

import ast
from collections import Counter
from collections.abc import Mapping
from html.parser import HTMLParser
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "harmonizer"
CALLERS = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")

ALLOWED: set[str] = set()
# The standard-library classes package classes derive from, by the name
# they derive under.
STDLIB_BASES = {"HTMLParser": HTMLParser, "Mapping": Mapping, "Exception": Exception}


def _references(node: ast.AST) -> Counter:
    names: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            names[sub.value] += 1
    return names


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function or class, or
    the names bound by an ``=`` or annotated assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [
            sub.id
            for target in targets
            for sub in ast.walk(target)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)
        ]
    return []


def _methods(node: ast.stmt) -> list[tuple[str, ast.AST]]:
    """(``Class.method``, its definition) for every method and property a
    module-level class defines, bar dunders and standard-library overrides."""
    if not isinstance(node, ast.ClassDef):
        return []
    bases = [base.value if isinstance(base, ast.Subscript) else base for base in node.bases]
    stdlib = [STDLIB_BASES[base.id] for base in bases if isinstance(base, ast.Name) and base.id in STDLIB_BASES]
    return [
        (f"{node.name}.{sub.name}", sub)
        for sub in node.body
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (sub.name.startswith("__") and sub.name.endswith("__"))
        and not any(hasattr(base, sub.name) for base in stdlib)
    ]


def unused_definitions() -> set[str]:
    trees = {
        directory: [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(directory.glob("*.py"))]
        for directory in CALLERS
    }
    everywhere: Counter = Counter()
    for tree in (tree for parsed in trees.values() for tree in parsed):
        everywhere.update(_references(tree))
    unused = {
        name
        for tree in trees[PACKAGE]
        for node in tree.body
        for name in _defined_names(node)
        if everywhere[name] == _references(node)[name]
    }
    for node in (node for tree in trees[PACKAGE] for node in tree.body):
        for qualified, method in _methods(node):
            name = qualified.rpartition(".")[2]
            if everywhere[name] == _references(method)[name]:
                unused.add(qualified)
    return unused


def test_every_module_level_definition_has_a_caller():
    unused = unused_definitions()
    assert sorted(unused - ALLOWED) == [], "defined in src/harmonizer but called only from tests, or not at all"
    assert sorted(ALLOWED - unused) == [], "allowlisted but now called: drop it from ALLOWED"
