"""The public API: ucsets.__all__ is exactly what ucsets/__init__.py imports.

The count is pinned so that growing or shrinking the API shows up as a
change to this file.
"""

import ast
import pathlib

import ucsets

PUBLIC_API_SIZE = 51


def imported_public_names():
    source = pathlib.Path(ucsets.__file__).read_text(encoding="utf-8")
    return {alias.asname or alias.name
            for node in ast.parse(source).body if isinstance(node, ast.ImportFrom)
            for alias in node.names if not (alias.asname or alias.name).startswith("_")}


def test_no_duplicates():
    assert len(set(ucsets.__all__)) == len(ucsets.__all__)


def test_every_name_resolves():
    assert [name for name in ucsets.__all__ if not hasattr(ucsets, name)] == []


def test_all_is_what_the_package_imports():
    assert set(ucsets.__all__) == imported_public_names()


def test_size_is_pinned():
    assert len(ucsets.__all__) == PUBLIC_API_SIZE
