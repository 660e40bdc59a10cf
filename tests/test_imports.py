"""Static checks: every imported name is read, and one class owns value equality.

Every name a module of the package or a test file imports is read in that
module. In the package, only ``intmat.Value`` defines ``__eq__``, and only
it and ``LaurentPolynomial`` define ``__hash__``.
"""

from __future__ import annotations

import ast
import os

import pytest

import xfan

PACKAGE = os.path.dirname(os.path.abspath(xfan.__file__))
TESTS = os.path.dirname(os.path.abspath(__file__))


def _sources(directory, prefix=""):
    names = (name for name in os.listdir(directory) if name.endswith(".py"))
    return {prefix + name: os.path.join(directory, name) for name in names}


SOURCES = {**_sources(PACKAGE), **_sources(TESTS, "tests/")}


def unused_imports(source):
    """Names bound by the import statements of ``source`` that nothing reads.

    The source must parse under the oldest Python the package supports
    (``requires-python`` in pyproject.toml). A name is read when it occurs
    as a name expression anywhere in the module, or as a string in
    ``__all__`` (a re-export). ``import a.b`` binds ``a``; ``__future__``
    imports bind nothing.
    """
    tree = ast.parse(source, feature_version=(3, 10))
    imported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(elt.value for elt in node.value.elts)
    return sorted(imported - read)


def test_unused_import_detection():
    assert unused_imports("from os import path, sep\nprint(sep)\n") == ["path"]
    assert unused_imports("import os.path\nos.getcwd()\n") == []
    assert unused_imports("import os.path as p\n") == ["p"]
    assert unused_imports("from .a import b\n__all__ = ['b']\n") == []
    assert unused_imports("from __future__ import annotations\n") == []
    # a name that is only assigned to is not read
    assert unused_imports("from m import x\nx = 1\n") == ["x"]


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_no_unused_imports(module):
    with open(SOURCES[module], encoding="utf-8") as f:
        assert unused_imports(f.read()) == []


def defining_classes(source, method):
    """Names of the classes of ``source`` whose bodies define ``method``.

    A def of that name anywhere else, at module level or nested in a
    function, counts as "<module>".
    """
    tree = ast.parse(source, feature_version=(3, 10))
    owner = {
        id(item): node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
    }
    return [
        owner.get(id(node), "<module>")
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == method
    ]


def test_defining_classes_detection():
    source = "class A:\n    def __eq__(s, o): pass\n    def f(s):\n        def __eq__(): pass\n"
    assert defining_classes(source, "__eq__") == ["A", "<module>"]
    assert defining_classes(source, "__hash__") == []


@pytest.mark.parametrize(
    "method, owners",
    [("__eq__", ["intmat.py:Value"]), ("__hash__", ["intmat.py:Value", "laurent.py:LaurentPolynomial"])],
)
def test_one_value_protocol(method, owners):
    found = []
    for name, path in sorted(_sources(PACKAGE).items()):
        with open(path, encoding="utf-8") as f:
            found.extend(f"{name}:{cls}" for cls in defining_classes(f.read(), method))
    assert sorted(found) == owners
