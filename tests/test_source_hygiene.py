"""Source hygiene of the package, with the standard library alone: every
imported name is used, every top-level function and class is read somewhere
in the package or exported, every module parses at the oldest Python
that ``pyproject.toml`` supports, only ``board`` words or hand-codes the
positive finite real rule, and only the two places that hold checked values
build a record without its checks."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "tacosim").glob("*.py"))


def _floor() -> tuple[int, int]:
    """The ``requires-python`` floor, as (major, minor)."""
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)', text).groups()
    return int(major), int(minor)


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names an import binds that the module never reads; a name listed in
    ``__all__`` is read by a star import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def _exported(tree: ast.Module) -> set[str]:
    """The names a module lists in ``__all__``."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {elt.value for elt in node.value.elts}
    return names


def _dead_definitions(trees: dict[str, ast.Module], exported: set[str]) -> list[str]:
    """Top-level functions and classes that no module reads, as a name, an
    attribute or an imported name, and that ``exported`` does not list."""
    read = set(exported)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [f"{module}.{node.name} (line {node.lineno})" for module, tree in trees.items()
            for node in tree.body if isinstance(node, defs) and node.name not in read]


def _positive_rule_copies(tree: ast.Module) -> list[str]:
    """The places a module words or hand-codes ``board.positive_float``'s rule: its
    refusal text, ``positive_finite(float(...))`` and ``math.isfinite(getattr(...))``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and "must be a positive finite real" in str(node.value):
            found.append((node.lineno, "refusal"))
        elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Call):
            call = f"{ast.unparse(node.func)}({ast.unparse(node.args[0].func)}("
            if call in ("positive_finite(float(", "math.isfinite(getattr("):
                found.append((node.lineno, call))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def _prechecked_readers(trees: dict[str, ast.Module]) -> set[str]:
    """The functions, as ``module.Class.function``, that read ``board._prechecked``
    by name or attribute; a read at module level is named by the module alone."""
    found = set()

    def visit(node: ast.AST, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if (isinstance(child, ast.Name) and child.id == "_prechecked"
                    or isinstance(child, ast.Attribute) and child.attr == "_prechecked"):
                found.add(".".join(scope))
            visit(child, scope)

    for module, tree in trees.items():
        visit(tree, [module])
    return found


def test_the_scan_sees_the_package_and_its_floor():
    assert len(MODULES) > 10
    assert _floor() == (3, 10)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_every_definition_is_read_or_exported():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    assert _dead_definitions(trees, _exported(trees["__init__"])) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_parses_at_the_python_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=_floor())


def test_only_board_holds_the_positive_finite_rule():
    # The rule's hand-written copies (a float() before the check, isfinite over
    # getattr, a separate sign test) each leaked an exception or took a str.
    found = {path.name: _positive_rule_copies(ast.parse(path.read_text())) for path in MODULES}
    assert {name for name, hits in found.items() if hits} == {"board.py"}
    assert {hit.split(" (")[0] for hit in found["board.py"]} == {"refusal"}


def test_a_copy_of_the_positive_rule_is_found():
    tree = ast.parse('d = positive_finite(float(d), "D")\nok = math.isfinite(getattr(c, k))\n'
                     'raise ValueError(f"{k} must be a positive finite real, got {v}")\n')
    assert _positive_rule_copies(tree) == [
        "positive_finite(float( (line 1)", "math.isfinite(getattr( (line 2)", "refusal (line 3)"]


def test_an_unused_import_is_found():
    tree = ast.parse("import os\nimport math as m\nfrom a.b import c, d\nprint(d, os.sep)\n")
    assert _unused_imports(tree) == ["m (line 2)", "c (line 3)"]


def test_a_dead_definition_is_found():
    trees = {
        "a": ast.parse("def used(): pass\ndef dead(): pass\nclass Kept: pass\ndef _attr(): pass\n"),
        "b": ast.parse("from a import used\nimport a\nprint(a._attr)\nclass Dead: pass\n"),
    }
    assert _dead_definitions(trees, {"Kept"}) == ["a.dead (line 2)", "b.Dead (line 4)"]


def test_only_holders_of_checked_values_build_a_record_without_its_checks():
    # board._prechecked skips a record's own checks; its values must come from
    # a record that applied the same rules, never from outside input.
    # scenario.enumerate_options: its rows are floats computed from a checked
    # WaypointScenario, guarded by a finite pass; its valuations go through floats.
    trees = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    assert _prechecked_readers(trees) == {"baselines.ChoiceProblem.agents",
                                          "experiments._run_point",
                                          "scenario.enumerate_options"}


def test_a_reader_of_the_unchecked_builder_is_found():
    tree = ast.parse("from .board import _prechecked\nclass P:\n    def agents(self):\n"
                     "        return _prechecked(A)\ndef load(x):\n    return board._prechecked(T)\n"
                     "make = _prechecked\n")
    assert _prechecked_readers({"m": tree}) == {"m.P.agents", "m.load", "m"}
