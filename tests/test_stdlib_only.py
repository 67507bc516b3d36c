"""The package imports nothing outside the standard library.

numpy and the test dependencies are installed alongside it, so an import
of one of them would work here and fail for a user who has only Python.
"""

import ast
import pathlib
import sys

import pytest

import ucsets

SOURCES = sorted(pathlib.Path(ucsets.__file__).parent.glob("*.py"))


def absolute_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"bounds.py", "cli.py", "formats.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib(path):
    outside = [name for name in absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
