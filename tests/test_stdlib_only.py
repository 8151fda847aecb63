"""The package imports nothing outside the standard library and itself, its exports resolve,
and only the clifford module reads the terms of an element."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import spintorus

PACKAGE = Path(spintorus.__file__).resolve().parent


def _absolute_imports(path: Path) -> list[tuple[int, str]]:
    """The top-level module name of every absolute import in a source file, with its line."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    outside = [
        f"{path.name}:{line} imports {name}"
        for path in modules
        for line, name in _absolute_imports(path)
        if name != "spintorus" and name not in sys.stdlib_module_names
    ]
    assert outside == []


def test_every_export_resolves():
    namespace: dict = {}
    exec("from spintorus import *", namespace)
    assert len(set(spintorus.__all__)) == len(spintorus.__all__)
    assert [name for name in spintorus.__all__ if name not in namespace] == []


def test_only_the_clifford_module_reads_element_terms():
    # Other modules go through `terms()`, `coefficient()`, `signed_terms()` or
    # `as_signed_blade()`, so the numerators and the denominator stay private
    # to `clifford.py`.
    private = ("_nums", "_den")
    assert spintorus.CliffordElement.__slots__ == ("sig",) + private
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "clifford.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in private
    ]
    assert readers == []
