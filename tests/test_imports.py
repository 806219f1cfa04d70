"""Every name a library module, test or tool imports is used in that file,
and every private module-level function and class is used somewhere in the
library."""

import ast
import pathlib

import pytest

import ymesh

SOURCES = sorted(pathlib.Path(ymesh.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]  # __init__ imports to re-export
HERE = pathlib.Path(__file__).parent
SCRIPTS = sorted(HERE.glob("*.py")) + sorted((HERE.parent / "tools").glob("*.py"))


def unused_imports(source):
    """Names bound by an import statement and never referenced."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    source = "import os\nfrom math import gcd, lcm as l\nimport a.b\n\nprint(l(2, 3), a.b)\n"
    assert unused_imports(source) == [(1, "os"), (2, "gcd")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_tests_and_tools_have_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def unused_private_definitions(sources):
    """(module, name) of each private module-level function or class of the
    sources (module -> text) that no source references outside the
    definition itself: by name, attribute or import."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    refs = [(id(n), name) for tree in trees.values() for n in ast.walk(tree)
            for name in _referenced(n)]
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not any(name == node.name and at not in inside for at, name in refs):
                found.append((module, node.name))
    return sorted(found)


def _referenced(node):
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {alias.name for alias in node.names}
    return set()


def test_scan_finds_an_unused_private_definition():
    a = ("def _imported():\n    pass\n\n\ndef _by_attribute():\n    pass\n\n\n"
         "def _recursive(n):\n    return _recursive(n - 1)\n\n\nclass _Unused:\n    pass\n\n\n"
         "def _local():\n    pass\n\n\ndef public():\n    return _local()\n")
    b = "from . import a\nfrom .a import _imported\n\nx = a._by_attribute\n"
    assert unused_private_definitions({"a": a, "b": b}) == [("a", "_Unused"), ("a", "_recursive")]


def test_library_has_no_unused_private_definition():
    assert unused_private_definitions({p.stem: p.read_text() for p in SOURCES}) == []
