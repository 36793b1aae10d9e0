"""Source hygiene of the package, with the standard library alone: every
imported name is used, and every module parses at the oldest Python that
``pyproject.toml`` supports."""

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
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_the_scan_sees_the_package_and_its_floor():
    assert len(MODULES) > 10
    assert _floor() == (3, 10)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_parses_at_the_python_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=_floor())


def test_an_unused_import_is_found():
    tree = ast.parse("import os\nimport math as m\nfrom a.b import c, d\nprint(d, os.sep)\n")
    assert _unused_imports(tree) == ["m (line 2)", "c (line 3)"]
