"""Every name a package module imports is used in that module, every
private module-level name is used somewhere in the package, every exported
name is used by the package or the benchmark worker, no module tests
a type with isinstance against int, bool or str, no file format has a
second reader or writer, only Graph.to_json calls the graph writer, the
package imports only the standard library and
none of its slow-to-import modules that it does not need, and the README's
library example and command-line block run."""

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import oddgraceful
from oddgraceful import cli

ROOT = Path(__file__).parent.parent
PACKAGE = sorted((ROOT / "src" / "oddgraceful").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def top_level_names(sources):
    """The module-level names that the sources define, and the names that
    some top-level statement other than their own definition refers to: by
    name, as an attribute, or in a from-import."""
    defined, referenced = set(), set()
    for source in sources:
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = {stmt.name}
            elif isinstance(stmt, ast.Assign):
                own = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
            else:
                own = set()
            defined |= own
            refs = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    refs |= {alias.name for alias in node.names}
            referenced |= refs - own
    return defined, referenced


def unreferenced_private_names(sources):
    """Private module-level names (one leading underscore) that no top-level
    statement other than their own definition refers to, in any of the
    sources."""
    defined, referenced = top_level_names(sources)
    return sorted(name for name in defined - referenced
                  if name.startswith("_") and not name.startswith("__"))


def test_unreferenced_private_names_are_detected():
    sources = ["_a = 1\n_b = 2\ndef _c():\n    return _c()\n",
               "from m import _b\nX = _d.y\n_d = 3\n"]
    assert unreferenced_private_names(sources) == ["_a", "_c"]


def test_every_private_name_is_referenced():
    sources = [p.read_text(encoding="utf-8") for p in MODULES]
    assert unreferenced_private_names(sources) == []


def unused_exports(exports, sources):
    """The exports, in order, that no top-level statement of the sources
    refers to other than their own definition."""
    referenced = top_level_names(sources)[1]
    return [name for name in exports if name not in referenced]


def test_unused_exports_are_detected():
    sources = ["def a():\n    return a()\ndef b():\n    pass\nX = b\n",
               "import m\nm.c()\nfrom m import d\n"]
    assert unused_exports(["a", "b", "c", "d", "e"], sources) == ["a", "e"]


def test_every_export_is_used_by_the_package_or_the_benchmark():
    # the package surface is what the audit needs: every exported name is
    # used by a package module or by the benchmark worker, so a name that
    # only the tests call lives with the tests (tests/constructions.py).
    # complement_labeling is the exception: criterion 7 checks that the
    # library's own complement of every passing labeling passes
    sources = [p.read_text(encoding="utf-8")
               for p in MODULES + [ROOT / "auditbench" / "worker.py"]]
    exports = [name for name in oddgraceful.__all__
               if name not in {"__version__", "complement_labeling"}]
    assert unused_exports(exports, sources) == []


def loose_type_tests(source: str):
    """Line numbers of isinstance calls against int, bool or str, alone or
    in a tuple: an int is exactly an int (graphs._is_int) and a str exactly
    a str, so isinstance, which admits subclasses, states a second rule."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1]
            names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(isinstance(n, ast.Name) and n.id in {"int", "bool", "str"}
                   for n in names):
                lines.append(node.lineno)
    return sorted(lines)


def test_loose_type_tests_are_detected():
    assert loose_type_tests(
        "isinstance(x, int)\nisinstance(x, dict)\n"
        "isinstance(x, (list, bool))\nnot isinstance(x, str)\n"
        "isinstance(x, (Graph, tuple))\ntype(x) is int\n") == [1, 3, 4]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_module_tests_int_and_str_by_exact_type(path):
    assert loose_type_tests(path.read_text(encoding="utf-8")) == []


def file_format_breaches(source: str, reader: str = None):
    """Line numbers that give a file a second reader or writer: a
    definition named to_json_obj or from_json, and a reference to json.load
    or json.loads, or an import of either from json, anywhere but inside
    the top-level function named reader."""
    tree = ast.parse(source)
    allowed = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == reader:
            allowed = set(map(id, ast.walk(stmt)))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in {"to_json_obj", "from_json"}:
                lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr in {"load", "loads"}
              and isinstance(node.value, ast.Name) and node.value.id == "json"
              and id(node) not in allowed):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "json" and {
                alias.name for alias in node.names} & {"load", "loads"}:
            lines.append(node.lineno)
    return sorted(lines)


def test_file_format_breaches_are_detected():
    source = ("import json\nfrom json import loads as parse\n"
              "def _load_json(fh):\n    return json.load(fh)\n"
              "def other(text):\n    return json.loads(text)\n"
              "class R:\n    def to_json_obj(self):\n        return {}\n"
              "    @staticmethod\n    def from_json(t):\n"
              "        return R(json.loads(t))\n"
              "read = json.load\njson.dumps({})\n"
              "def from_json_obj(obj):\n    return obj\n")
    assert file_format_breaches(source, "_load_json") == [2, 6, 8, 11, 12, 13]
    assert file_format_breaches(source) == [2, 4, 6, 8, 11, 12, 13]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_one_reader_and_one_writer_per_file(path):
    # cli._load_json is the one place that parses file text, and no record
    # keeps a dict form beside its to_json
    reader = "_load_json" if path.name == "cli.py" else None
    assert file_format_breaches(path.read_text(encoding="utf-8"),
                                reader) == []


def graph_writer_bypasses(source: str):
    """Line numbers that reach the graph writer Graph._write_json, by name,
    as an attribute, as a string or in a from-import, anywhere but inside
    Graph.to_json: any other caller would format the graph again instead of
    reading the text that to_json keeps."""
    tree = ast.parse(source)
    allowed = set()
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name == "Graph":
            for stmt in cls.body:
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "to_json":
                    allowed = set(map(id, ast.walk(stmt)))
    lines = []
    for node in ast.walk(tree):
        names = (getattr(node, "id", None), getattr(node, "attr", None),
                 getattr(node, "value", None))
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        if "_write_json" in names and id(node) not in allowed:
            lines.append(node.lineno)
    return sorted(lines)


def test_graph_writer_bypasses_are_detected():
    source = ("class Graph:\n"
              "    def to_json(self):\n"
              "        if self._json is None:\n"
              "            self._json = self._write_json()\n"
              "        return self._json\n"
              "    def _write_json(self):\n"
              "        return '{}'\n"
              "    def fingerprint(self):\n"
              "        return sha(self._write_json())\n"
              "def labeling_to_json(g):\n"
              "    return getattr(g, '_write_json')()\n"
              "class Other:\n"
              "    def to_json(self):\n"
              "        return Graph._write_json(self)\n"
              "from .graphs import _write_json\n"
              "write = _write_json\n")
    assert graph_writer_bypasses(source) == [9, 11, 14, 15, 16]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_to_json_calls_the_graph_writer(path):
    # Graph.to_json writes a graph's text once and keeps it; the fingerprint
    # and the labeling file read it through to_json
    assert graph_writer_bypasses(path.read_text(encoding="utf-8")) == []


def non_stdlib_imports(source: str):
    """Top-level names of absolute imports outside the standard library;
    relative imports are the package's own."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return sorted(roots - sys.stdlib_module_names)


def test_non_stdlib_imports_are_detected():
    assert non_stdlib_imports(
        "import os.path, numpy\nfrom . import x\nfrom .a import b\n"
        "from hypothesis import given\n") == ["hypothesis", "numpy"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    assert non_stdlib_imports(path.read_text(encoding="utf-8")) == []


def test_import_loads_no_dataclasses_inspect_or_hashlib():
    # importing dataclasses pulls in inspect, ast and dis, and hashlib loads
    # OpenSSL, which cost a process that runs one command several
    # milliseconds to start; only fingerprints import hashlib, when called
    src = str(Path(cli.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, oddgraceful, oddgraceful.cli; print(sorted("
            "{'dataclasses', 'inspect', 'hashlib'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = [b for b in re.findall(r"^```\n(.*?)^```$", readme, re.S | re.M)
              if b.startswith("oddgraceful ")]
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    for line in blocks[0].replace("\\\n", "").splitlines():
        argv = shlex.split(line)
        assert argv[0] == "oddgraceful"
        assert cli.main(argv[1:]) == 0, (line, capsys.readouterr().err)
