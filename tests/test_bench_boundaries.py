"""The benchmark tracer's boundary functions still exist in the package.

bench/tracer.py rebinds the functions its BOUNDARIES table names, so
deleting or renaming one breaks traced benchmark runs.  The table is read
from the file's source, without importing or changing the tracer.  The
boundaries that only the tracer calls are kept out of the public API.
"""

import ast
import importlib
from pathlib import Path

import ucsets

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _boundaries() -> dict[str, dict[str, str]]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.AnnAssign)
                and getattr(node.target, "id", "") == "BOUNDARIES"):
            return ast.literal_eval(node.value)
    raise AssertionError("BOUNDARIES not found in bench/tracer.py")


def test_every_boundary_resolves_in_its_module():
    boundaries = _boundaries()
    assert boundaries
    for mod_name, funcs in boundaries.items():
        module = importlib.import_module(mod_name)
        for func_name in funcs:
            assert callable(getattr(module, func_name, None)), f"{mod_name}.{func_name}"


def test_boundaries_imported_by_name_where_the_bench_expects():
    # bench/test_bench.py expects the tracer to rebind these where they are
    # imported, not only where they are defined.
    boundaries = _boundaries()
    for mod_name, func_name, home in (
            ("ucsets.bounds", "falgas_ravry_chain", "ucsets.witnesses"),
            ("ucsets.search", "find_union_gap", "ucsets.family"),
            ("ucsets.cli", "corpus_verify", "ucsets.search")):
        assert func_name in boundaries[home]
        imported = getattr(importlib.import_module(mod_name), func_name, None)
        assert imported is getattr(importlib.import_module(home), func_name), \
            f"{mod_name}.{func_name}"


def test_boundaries_unused_in_the_package_are_not_exported():
    # A boundary that no package code reads by name exists only for the
    # tracer; it stays out of ucsets.__all__, and this set is what goes
    # when BOUNDARIES drops it.
    package = Path(ucsets.__file__).resolve().parent
    used = {node.id
            for path in package.glob("*.py") if path.name != "__init__.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Name)}
    unused = {f"{mod_name[len('ucsets.'):]}.{func_name}"
              for mod_name, funcs in _boundaries().items()
              for func_name in funcs if func_name not in used}
    assert unused == {"bounds.lemma_bound", "family.column_signatures",
                      "family.element_frequencies", "family.frequency_profile",
                      "witnesses.m_sets"}
    assert {name.rpartition(".")[2] for name in unused} & set(ucsets.__all__) == set()
