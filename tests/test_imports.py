"""Every name a package module imports is used in that module, and every
private module-level name is used somewhere in the package."""

import ast
from pathlib import Path

import pytest

MODULES = sorted(p for p in (Path(__file__).parent.parent / "src"
                             / "oddgraceful").glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0]
                         for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_detected():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "b", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_names(sources):
    """Private module-level names (one leading underscore) that no top-level
    statement other than their own definition refers to, in any of the
    sources: by name, as an attribute, or in a from-import."""
    defined, referenced = set(), set()
    for source in sources:
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = {stmt.name}
            elif isinstance(stmt, ast.Assign):
                own = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
            else:
                own = set()
            defined |= {name for name in own
                        if name.startswith("_") and not name.startswith("__")}
            refs = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    refs |= {alias.name for alias in node.names}
            referenced |= refs - own
    return sorted(defined - referenced)


def test_unreferenced_private_names_are_detected():
    sources = ["_a = 1\n_b = 2\ndef _c():\n    return _c()\n",
               "from m import _b\nX = _d.y\n_d = 3\n"]
    assert unreferenced_private_names(sources) == ["_a", "_c"]


def test_every_private_name_is_referenced():
    sources = [p.read_text(encoding="utf-8") for p in MODULES]
    assert unreferenced_private_names(sources) == []
