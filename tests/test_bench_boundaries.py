"""The benchmark tracer's boundary functions still exist in the package.

bench/tracer.py rebinds the functions its BOUNDARIES table names, so
deleting or renaming one breaks traced benchmark runs.  The table is read
from the file's source, without importing or changing the tracer.
"""

import ast
import importlib
from pathlib import Path

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
