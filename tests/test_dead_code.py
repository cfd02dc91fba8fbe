"""Every module-level function, class and assigned name of the package, and
every method and property of its classes, has a caller.

A definition counts as used when its name appears outside its own body, as
a name, an attribute or an exact string (``perfbench`` wraps functions by
name), in ``src/harmonizer``, ``scripts`` or ``perfbench``. Tests do not
count: code that only tests call belongs with the tests. Dunder methods and
overrides of a standard-library base's methods are called by Python itself.

Likewise every parameter with a default of a module-level function or a
method is passed by some call there, bar the test seams in ``TEST_SEAMS``:
a default that only tests override is a branch that only tests take. The
complement holds too: every parameter default and dataclass-field default
is left out by some call there, since a default that every caller passes
only restates a value the callers already hold. Together the two make each
default a real option. And no module of ``src/harmonizer`` or ``scripts``
imports a name it never reads.
"""

from __future__ import annotations

import ast
from collections import Counter
from collections.abc import Mapping
from html.parser import HTMLParser
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "harmonizer"
CALLERS = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")

ALLOWED: set[str] = set()
# Parameters with a default that no caller passes: the seams tests use in
# place of the command line, the environment and the clock, and the hash
# width tests shrink to force bucket collisions.
TEST_SEAMS = {"main.argv", "PipelineConfig.load.environ", "fetch_augmentation.now", "HashingBackend.__init__.dim"}
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


def _trees() -> dict[Path, list[ast.Module]]:
    return {
        directory: [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(directory.glob("*.py"))]
        for directory in CALLERS
    }


def unused_definitions() -> set[str]:
    trees = _trees()
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


def _functions(node: ast.stmt) -> list[tuple[str, str, ast.AST, bool]]:
    """(qualified name, the name a call uses, definition, whether it is a
    method) for a module-level function, or each method of a module-level
    class; ``__init__`` is called by its class's name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [(node.name, node.name, node, False)]
    if not isinstance(node, ast.ClassDef):
        return []
    return [
        (f"{node.name}.{sub.name}", node.name if sub.name == "__init__" else sub.name, sub, True)
        for sub in node.body
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _spreads(call: ast.Call) -> bool:
    """Whether ``call`` passes arguments through ``*`` or ``**``, which may
    pass any parameter or leave it out."""
    spread_keywords = any(keyword.arg is None for keyword in call.keywords)
    return spread_keywords or any(isinstance(arg, ast.Starred) for arg in call.args)


def _names(call: ast.Call, name: str, position: Optional[int]) -> bool:
    """Whether ``call`` itself passes the parameter ``name``, the
    ``position``-th positional one (None if keyword-only)."""
    by_keyword = any(keyword.arg == name for keyword in call.keywords)
    return by_keyword or (position is not None and position < len(call.args))


def _calls(trees: dict[Path, list[ast.Module]]) -> dict[str, list[ast.Call]]:
    """Every call in ``trees`` by the name it calls: a bare name or the last
    attribute, and a ``cls(...)`` inside a module-level class by the
    class's name."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in (tree for parsed in trees.values() for tree in parsed):
        for call in (sub for sub in ast.walk(tree) if isinstance(sub, ast.Call)):
            func = call.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls.setdefault(called, []).append(call)
        for node in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for call in (sub for sub in ast.walk(node) if isinstance(sub, ast.Call)):
                if isinstance(call.func, ast.Name) and call.func.id == "cls":
                    calls.setdefault(node.name, []).append(call)
    return calls


def _parameter_defaults(node: ast.stmt) -> list[tuple[str, str, str, Optional[int]]]:
    """(``function.parameter``, the name a call uses, the parameter, its
    position in a call or None if keyword-only) for every parameter with a
    default of a module-level function or method."""
    out = []
    for qualified, called, function, method in _functions(node):
        args = function.args
        positional = args.posonlyargs + args.args
        # A call passes a method's arguments after its self or cls.
        skip = 1 if method else 0
        first = len(positional) - len(args.defaults)
        out += [
            (f"{qualified}.{arg.arg}", called, arg.arg, index - skip)
            for index, arg in enumerate(positional)
            if index >= first
        ]
        out += [
            (f"{qualified}.{arg.arg}", called, arg.arg, None)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
    return out


def _field_defaults(node: ast.stmt) -> list[tuple[str, str, str, int]]:
    """(``Class.field``, the class name, the field, its position in a call)
    for every field with a default of a module-level dataclass."""
    if not isinstance(node, ast.ClassDef) or not any(
        getattr(decorator.func if isinstance(decorator, ast.Call) else decorator, "id", None) == "dataclass"
        for decorator in node.decorator_list
    ):
        return []
    fields = [sub for sub in node.body if isinstance(sub, ast.AnnAssign)]
    return [
        (f"{node.name}.{sub.target.id}", node.name, sub.target.id, position)
        for position, sub in enumerate(fields)
        if sub.value is not None
    ]


def unpassed_defaults() -> set[str]:
    """``function.parameter`` for every parameter with a default that no
    call in ``CALLERS`` passes."""
    trees = _trees()
    calls = _calls(trees)
    return {
        qualified
        for node in (node for tree in trees[PACKAGE] for node in tree.body)
        for qualified, called, name, position in _parameter_defaults(node)
        if not any(_spreads(call) or _names(call, name, position) for call in calls.get(called, []))
    }


def unleft_defaults() -> set[str]:
    """``function.parameter`` and ``Class.field`` for every parameter or
    dataclass field with a default that every call in ``CALLERS`` passes,
    or that no call makes."""
    trees = _trees()
    calls = _calls(trees)
    return {
        qualified
        for node in (node for tree in trees[PACKAGE] for node in tree.body)
        for qualified, called, name, position in _parameter_defaults(node) + _field_defaults(node)
        if not any(_spreads(call) or not _names(call, name, position) for call in calls.get(called, []))
    }


def unused_imports() -> set[str]:
    """``file: name`` for every name a module of ``src/harmonizer`` or
    ``scripts`` binds by an import and never reads: no ``Name`` node and no
    string (a quoted annotation) holds it."""
    unused = set()
    for path in (path for directory in (PACKAGE, ROOT / "scripts") for path in sorted(directory.glob("*.py"))):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
        read = {
            sub.id if isinstance(sub, ast.Name) else sub.value
            for sub in ast.walk(tree)
            if isinstance(sub, ast.Name) or (isinstance(sub, ast.Constant) and isinstance(sub.value, str))
        }
        unused.update(f"{path.relative_to(ROOT)}: {name}" for name in imported - read)
    return unused


def test_every_module_level_definition_has_a_caller():
    unused = unused_definitions()
    assert sorted(unused - ALLOWED) == [], "defined in src/harmonizer but called only from tests, or not at all"
    assert sorted(ALLOWED - unused) == [], "allowlisted but now called: drop it from ALLOWED"


def test_every_default_is_passed_by_a_caller():
    unpassed = unpassed_defaults()
    assert sorted(unpassed - TEST_SEAMS) == [], "a default that only tests override, or none"
    assert sorted(TEST_SEAMS - unpassed) == [], "a test seam now passed by a caller: drop it from TEST_SEAMS"


def test_every_default_is_left_out_by_a_caller():
    assert sorted(unleft_defaults()) == [], "a default that every caller passes: drop it, callers hold the value"


def test_every_import_is_read():
    assert sorted(unused_imports()) == [], "imported but never read: drop the import"
