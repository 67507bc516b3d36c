"""Mutation smoke test for a group of functions: the threshold verdict and
its calculus, the family kernels (validation, m-sets, member texts, the
union and separation checks, the witness elements and the closure loop),
the canonical NDJSON line decoder, the exhaustive search,
the test that generator mode applies at its leaves, the seeded random
family, the corpus battery, the chain and transversal verifiers with the
counting audit, the chain and transversal builders, the CLI's corpus
sources and its refusal of the options a source does not read, or the
readers of the text form, of JSON family documents and of NDJSON lines.

Run from the repository root; pytest does not collect this file:

    python3 tests/mutation_smoke.py \
        [bounds|family|ndjson|enumerate|generators|random|battery|verifiers|builders|sources|
         readers]

A group is a module, the functions mutated in it (a method as
Class.method) and the test files or pytest node ids run against each
mutant (GROUPS; bounds by default).
Each mutant changes one thing in one of the functions: < and <=, > and
>=, == and !=, is and is not swap, + and - swap, and and or swap, & and
| swap, a not is dropped, or an integer constant moves by one.  The
mutant is written into a temporary copy of the repository's src/ and
tests/, and the group's tests run against it with -x, one pytest process
at a time, its address space capped at MEMORY_CAP.  Hypothesis runs with
seed 0 and no example database, so a run gives each mutant the same
outcome as the last.  A mutant that no test fails survives, unless
EQUIVALENT names it; a mutant whose tests run past TIMEOUT_FACTOR times
the unmutated module's run, timed just before on the same machine, is
killed.  The script prints one line per mutant and exits 1 when a mutant
survives that EQUIVALENT does not name.  Before any test runs, it exits 2
when two mutants of the group share a description or when an EQUIVALENT
key for one of the group's functions describes no mutant.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Group(NamedTuple):
    module: Path
    functions: tuple[str, ...]
    tests: tuple[str, ...]


GROUPS = {
    "bounds": Group(Path("src/ucsets/bounds.py"),
                    ("verdict_for", "_theorem_gap", "bound_report"),
                    ("tests/test_bounds.py", "tests/test_acceptance.py")),
    "family": Group(Path("src/ucsets/family.py"),
                    ("SetFamily.__init__", "_checked_union", "SetFamily.m_sets",
                     "_byte_member_texts", "_member_texts", "find_union_gap", "is_separating",
                     "frankl_witnesses", "_grow_closure"),
                    ("tests/test_family.py", "tests/test_formats.py", "tests/test_kernels.py")),
    "ndjson": Group(Path("src/ucsets/formats.py"), ("family_from_ndjson",),
                    ("tests/test_formats.py", "tests/test_fuzz.py")),
    "enumerate": Group(Path("src/ucsets/search.py"), ("_enumerate_exhaustive",),
                       ("tests/test_search.py", "tests/test_kernels.py")),
    "generators": Group(Path("src/ucsets/search.py"), ("_tied_relabelings", "_orderly"),
                        ("tests/test_search.py", "tests/test_kernels.py")),
    "random": Group(Path("src/ucsets/search.py"), ("random_family",),
                    ("tests/test_kernels.py::test_random_family_matches_closure_then_quotient",
                     "tests/test_search.py::TestRandomFamily")),
    "battery": Group(Path("src/ucsets/search.py"), ("_verify_batch", "_battery_stages"),
                     ("tests/test_search.py", "tests/test_sharding.py",
                      "tests/test_cli.py::TestVerify",
                      "tests/test_kernels.py::test_staged_battery_matches_family_by_family_sweep")),
    "verifiers": Group(Path("src/ucsets/witnesses.py"),
                       ("verify_chain_witness", "verify_transversal", "_u_columns",
                        "counting_audit"),
                       ("tests/test_witnesses.py",
                        "tests/test_kernels.py::test_verifiers_and_audit_match_member_loops",
                        "tests/test_acceptance.py")),
    "builders": Group(Path("src/ucsets/witnesses.py"),
                      ("falgas_ravry_chain", "minimal_transversal"),
                      ("tests/test_witnesses.py", "tests/test_kernels.py",
                       "tests/test_acceptance.py")),
    "sources": Group(Path("src/ucsets/cli.py"), ("_verify_families", "_corpus"),
                     ("tests/test_cli.py::TestVerify", "tests/test_cli.py::TestEnumerate",
                      "tests/test_cli.py::TestRandom")),
    "readers": Group(Path("src/ucsets/formats.py"),
                     ("parse_members_text", "_element_id", "_Line.n", "_Line.decode",
                      "_one_object", "family_from_json_dict", "_fast_masks", "_checked_masks",
                      "decode_json"),
                     ("tests/test_formats.py", "tests/test_fuzz.py",
                      "tests/test_kernels.py::test_reader_matches_per_id_reference",
                      "tests/test_kernels.py::test_text_reader_matches_per_token_reference",
                      "tests/test_kernels.py::test_reader_matches_per_id_reference_on_edge_documents",
                      "tests/test_cli.py::TestReader", "tests/test_sharding.py")),
}
# A mutant that grows a list without end fails with MemoryError at this
# cap instead of taking the machine's memory.
MEMORY_CAP = 1 << 30
# A mutant's test run is cut, and the mutant counted as killed, at this
# many times the unmutated module's run, so the limit follows the machine
# and its load.
TIMEOUT_FACTOR = 5

# Survivors that no test can kill, by description, with the reason.
_PRECISION = "the precision doubles until the floor is settled"
_WIDER = "a wider eps costs at most one more doubling"
_NARROWER = ("differs only where the first precision's rounding error carries q "
             "across an integer; no m found comes that close")
_SCALE = "any common multiple of every k - 2 ranks k exactly"

# The verifiers decide each group of checks by one fit test and walk the
# group to name its violations only when that test fails; the walk names
# nothing on a valid witness.  A mutant that only makes the fit test fail
# more often changes the time, not the report.
_ALWAYS = "the fit test fails on every input, so the walk always runs"
_MORE = "the fit test fails wherever the original one fails, so the walk only runs more often"
_COUNT = ("at most 2^k - 1 distinct non-empty keys lie inside u_hat, so the count "
          "never matches while the other clauses hold, and the walk runs")
_RANKS = "zip stops at the end of order, so the rank map is unchanged"
_ANNOTATION = "the annotation of a local variable is never evaluated"
# SetFamily.__init__ hands the checked scan only members that its one-pass
# loop refused, and on int masks the scan then always raises.
_RAISES = "the checked scan raises on every int input it gets, so its union is never stored"
# The member texts read one byte plane per 8 ids; a plane of zero bytes
# adds the empty text to every member.
_PLANES = "the extra planes hold only zero bytes, whose text is empty"
_BYTE = "a family over ids below 8 that misses the table reads the same texts from one plane"
EQUIVALENT = {
    "SetFamily.__init__: 1 -> 2 at col 16 of `prev = -1`":
        "a negative member passed over makes the union negative, which fails the "
        "universe test, so the checked scan still raises",
    "_checked_union: 0 -> -1 at col 10 of `cov = 0`": _RAISES,
    "_checked_union: 0 -> 1 at col 10 of `cov = 0`": _RAISES,
    "_checked_union: | -> & at col 8 of `cov |= mask`": _RAISES,
    "_member_texts: <= -> < at col 7 of `if f.covered_mask <= 0xFF:`": _BYTE,
    "_member_texts: 255 -> 254 at col 25 of `if f.covered_mask <= 0xFF:`": _BYTE,
    "_member_texts: 7 -> 8 at col 52 of "
    "`planes = tables[:(f.covered_mask.bit_length() + 7) // 8]`": _PLANES,
    "_member_texts: 8 -> 7 at col 58 of "
    "`planes = tables[:(f.covered_mask.bit_length() + 7) // 8]`": _PLANES,
    "find_union_gap: 1 -> 0 at col 29 of `for b in members[i + 1:]:`":
        "the union of a member with itself is that member, never missing",
    "_theorem_gap: 1 -> 2 at col 35 of `if m == 1 << lg and lg & (lg - 1) == 0:`":
        "lg & (lg - 2) == 0 picks the same powers of two for every lg >= 2",
    "_theorem_gap: 10 -> 9 at col 33 of `ctx.prec = len(str(m)) + 10`": _PRECISION,
    "_theorem_gap: 10 -> 11 at col 33 of `ctx.prec = len(str(m)) + 10`": _PRECISION,
    "_theorem_gap: 2 -> 3 at col 24 of `ctx.prec *= 2`": _PRECISION,
    "_theorem_gap: 1 -> 2 at col 26 of `eps = Decimal(1).scaleb(3 - ctx.prec)`": _WIDER,
    "_theorem_gap: 3 -> 4 at col 36 of `eps = Decimal(1).scaleb(3 - ctx.prec)`": _WIDER,
    "_theorem_gap: 1 -> 0 at col 26 of `eps = Decimal(1).scaleb(3 - ctx.prec)`": _NARROWER,
    "_theorem_gap: 3 -> 2 at col 36 of `eps = Decimal(1).scaleb(3 - ctx.prec)`": _NARROWER,
    "bound_report: - -> + at col 27 of `scale = math.lcm(*(k - 2 for k in f_values))`":
        _SCALE,
    "bound_report: 2 -> 1 at col 31 of `scale = math.lcm(*(k - 2 for k in f_values))`":
        _SCALE,
    "_enumerate_exhaustive: 1 -> 2 at col 25 of `masks = range(full + 1)`":
        "the extra mask 2^m holds no element below m, so cols is unchanged, "
        "and the search never reads its steps or its squeeze entries",
    "verify_chain_witness: 1 -> 2 at col 32 of `m_sets_fit = len(ms) == m + 1`":
        "a right length makes the walk run, and the length check names a length of m + 2",
    "verify_chain_witness: 0 -> -1 at col 13 of `higher = 0`": _ALWAYS,
    "verify_chain_witness: & -> | at col 26 of `if r < length and chain[r] & below != higher:`":
        _ALWAYS,
    "verify_chain_witness: & -> | at col 27 of `if m_sets_fit and (ms[r] & below != higher`":
        _ALWAYS,
    "verify_chain_witness: & -> | at col 45 of `or r < length and chain[r] & ~ms[r]):`": _MORE,
    "verify_chain_witness: 0 -> -1 at col 28 of "
    "`if chain and not (chain[0] == covered and not higher & ~covered`":
        "chain[-1] is chain[0] for m = 1; for m >= 2 a chain that fits inside the universe "
        "has chain[m-1] without the rank-(m-1) element, so the walk always runs",
    "verify_chain_witness: & -> | at col 50 of "
    "`if chain and not (chain[0] == covered and not higher & ~covered`": _ALWAYS,
    "verify_chain_witness: & -> | at col 65 of "
    "`elif not (m_sets_fit and ms[0] == covered and not (chain and chain[0] & ~ms[0])):`":
        _MORE,
    "verify_transversal: & -> | at col 17 of `twice |= hit & column`": _MORE,
    "verify_transversal: & -> | at col 17 of `if u_hat and nonempty & ~hit:`": _MORE,
    "verify_transversal: and -> or at col 7 of "
    "`if not nonempty & ~hit and not all(map(once.__and__, u_columns)):`":
        "the walk then also runs when a non-empty member misses u_hat, and names nothing, "
        "since that member misses every smaller candidate",
    "verify_transversal: - -> + at col 23 of `if not (len(pb) == (1 << k) - 1 and 0 not in pb`":
        _COUNT,
    "verify_transversal: 1 -> 0 at col 24 of `if not (len(pb) == (1 << k) - 1 and 0 not in pb`":
        _COUNT,
    "verify_transversal: 1 -> 2 at col 24 of `if not (len(pb) == (1 << k) - 1 and 0 not in pb`":
        _COUNT,
    "verify_transversal: 1 -> 0 at col 34 of `if not (len(pb) == (1 << k) - 1 and 0 not in pb`":
        _COUNT,
    "verify_transversal: or -> and at col 17 of `and (traced or not reduce(or_, pb, 0) & ~u_hat)):`":
        _MORE,
    "verify_transversal: & -> | at col 31 of `and (traced or not reduce(or_, pb, 0) & ~u_hat)):`":
        _MORE,
    "verify_transversal: 0 -> -1 at col 47 of `and (traced or not reduce(or_, pb, 0) & ~u_hat)):`":
        _MORE,
    "verify_transversal: 0 -> 1 at col 47 of `and (traced or not reduce(or_, pb, 0) & ~u_hat)):`":
        _MORE,
    "verify_transversal: 1 -> 0 at col 14 of `inside = -1`": _MORE,
    "verify_transversal: 1 -> 2 at col 14 of `inside = -1`": _MORE,
    "verify_transversal: 0 -> -1 at col 13 of `higher = 0`": _MORE,
    "verify_transversal: 0 -> 1 at col 13 of `higher = 0`": _MORE,
    "verify_transversal: | -> & at col 20 of `ax |= BITS[y]`": _ALWAYS,
    "verify_transversal: 1 -> 0 at col 29 of `if not ax >> x & 1 or ax & ~inside:`": _ALWAYS,
    "verify_transversal: & -> | at col 34 of `if not ax >> x & 1 or ax & ~inside:`": _ALWAYS,
    "verify_transversal: != -> == at col 11 of `if ms[r] & higher != higher:`":
        "the mutated test holds at the top rank, where higher is 0, so the walk always runs",
    "verify_transversal: 1 -> 2 at col 44 of `rank = dict(zip(order, range(1, m + 1)))`": _RANKS,
    "verify_transversal: 1 -> 2 at col 44 of `rank = dict(zip(order, range(1, m + 1)))` (#2)":
        _RANKS,
    "verify_transversal: & -> | at col 46 of "
    "`if not (a_sets_fit and m_sets_fit and not tilde & ~ms[0]):`": _ALWAYS,
    "falgas_ravry_chain: & -> | at col 56 of "
    "`witness = pair_witnesses[(i, j)] = members[(hits & -hits).bit_length() - 1]`":
        "for hits > 0, hits | -hits is minus the lowest bit of hits, "
        "which has the same bit_length",
    "minimal_transversal: 1 -> 2 at col 37 of `later = [0] * (len(candidates) + 1)`":
        "later is read only up to index len(candidates), so the extra 0 is never read",
    "family_from_ndjson: | -> & at col 11 of `masks: list[int] | None = []`": _ANNOTATION,
    'counting_audit: 0 -> -1 at col 47 of `"frequency_cap": max(u_counts, default=0) <= m + c,`':
        "the default is read only when no id of u_hat lies in the universe, and m + c, "
        "the largest frequency or 0 when there is no element, is at least 0 > -1",
}

SWAPS: dict[type, type] = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.And: ast.Or, ast.Or: ast.And,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.Add: "+",
           ast.Sub: "-", ast.And: "and", ast.Or: "or", ast.BitAnd: "&", ast.BitOr: "|"}

Mutation = Callable[[ast.AST], None]


def _swap_op(node: ast.AST) -> None:
    node.op = SWAPS[type(node.op)]()


def _swap_compare(i: int) -> Mutation:
    def mutate(node: ast.AST) -> None:
        node.ops[i] = SWAPS[type(node.ops[i])]()
    return mutate


def _shift(delta: int) -> Mutation:
    def mutate(node: ast.AST) -> None:
        node.value += delta
    return mutate


class _DropNot(ast.NodeTransformer):
    def __init__(self, target: ast.AST):
        self.target = target

    def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.AST:
        if node is self.target:
            return node.operand
        return self.generic_visit(node)


def _mutations(node: ast.AST) -> Iterator[tuple[str, Mutation | None]]:
    """(description, mutation) for each mutant of this node; a mutation of
    None drops a not."""
    if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
        op = type(node.op)
        yield f"{SYMBOLS[op]} -> {SYMBOLS[SWAPS[op]]}", _swap_op
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(map(type, node.ops)):
            if op in SWAPS:
                yield f"{SYMBOLS[op]} -> {SYMBOLS[SWAPS[op]]}", _swap_compare(i)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield "not dropped", None
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        for delta in (-1, 1):
            yield f"{node.value} -> {node.value + delta}", _shift(delta)


def _function_nodes(tree: ast.Module, name: str) -> list[ast.AST]:
    """The nodes of one function's body, in source order; Class.method
    names a method."""
    scope: ast.Module | ast.ClassDef = tree
    *classes, name = name.split(".")
    for owner in classes:
        (scope,) = (n for n in scope.body if isinstance(n, ast.ClassDef) and n.name == owner)
    (func,) = (n for n in scope.body if isinstance(n, ast.FunctionDef) and n.name == name)
    nodes = [n for stmt in func.body for n in ast.walk(stmt) if hasattr(n, "lineno")]
    return sorted(nodes, key=lambda n: (n.lineno, n.col_offset))


def mutants(source: str, functions: tuple[str, ...]) -> Iterator[tuple[int, str, str]]:
    """(line, description, mutated module source) for every mutant of the
    functions.  A description names the function, the change, its column
    and its line; when an earlier mutant has that description already, as
    the two operators of a chained comparison or two identical lines do,
    the second gets " (#2)" appended, the third " (#3)", and so on."""
    tree = ast.parse(source)
    seen: dict[str, int] = {}
    for name in functions:
        for index, node in enumerate(_function_nodes(tree, name)):
            for what, mutate in _mutations(node):
                mutant = copy.deepcopy(tree)
                target = _function_nodes(mutant, name)[index]
                if mutate is None:
                    mutant = _DropNot(target).visit(mutant)
                else:
                    mutate(target)
                line = source.splitlines()[node.lineno - 1].strip()
                what = f"{name}: {what} at col {node.col_offset} of `{line}`"
                seen[what] = count = seen.get(what, 0) + 1
                if count > 1:
                    what += f" (#{count})"
                yield node.lineno, what, ast.unparse(mutant)


def _cap_memory() -> None:
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_tests(copy_root: Path, group: Group, timeout_s: float | None = None) -> str:
    """'killed', 'survived' or 'timeout' for the module now in copy_root."""
    # No bytecode is cached: a .pyc checks only the source's size and its
    # mtime in seconds, which two mutants written in one second can share.
    env = {**os.environ, "PYTHONPATH": str(copy_root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    # Examples saved while an earlier mutant ran would be replayed first.
    shutil.rmtree(copy_root / ".hypothesis", ignore_errors=True)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *group.tests],
            cwd=copy_root, env=env, preexec_fn=_cap_memory,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def naming_fault(names: list[str], functions: tuple[str, ...]) -> str | None:
    """Why the group's mutant names cannot be checked against EQUIVALENT:
    a name given twice, or a key for one of the functions that names no
    mutant, so that it explains nothing or a mutant it was not written for."""
    if len(set(names)) != len(names):
        return f"two mutants are named {next(n for n in names if names.count(n) > 1)}"
    live = set(names)
    stale = [key for key in EQUIVALENT
             if key.partition(": ")[0] in functions and key not in live]
    return f"EQUIVALENT names no mutant: {stale[0]}" if stale else None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Mutation smoke over one group of functions.")
    ap.add_argument("group", nargs="?", choices=sorted(GROUPS), default="bounds")
    group = GROUPS[ap.parse_args(argv).group]
    source = (ROOT / group.module).read_text()
    found = list(mutants(source, group.functions))
    fault = naming_fault([what for _, what, _ in found], group.functions)
    if fault:
        print(fault, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        copy_root = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy_root / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy_root)
        module = copy_root / group.module
        # The unparsed original must pass, or every mutant would be killed.
        module.write_text(ast.unparse(ast.parse(source)))
        start = time.perf_counter()
        if run_tests(copy_root, group) != "survived":
            print("the tests fail on the unmutated module", file=sys.stderr)
            return 2
        timeout_s = TIMEOUT_FACTOR * (time.perf_counter() - start)
        print(f"unmutated run: {timeout_s / TIMEOUT_FACTOR:.1f} s; "
              f"each mutant gets {timeout_s:.1f} s", flush=True)
        unexplained = []
        for lineno, what, mutated in found:
            module.write_text(mutated)
            outcome, why = run_tests(copy_root, group, timeout_s), ""
            if outcome == "survived" and what in EQUIVALENT:
                outcome, why = "explained", f" ({EQUIVALENT[what]})"
            elif outcome == "survived":
                unexplained.append(what)
            print(f"{outcome:>9}  line {lineno}: {what}{why}", flush=True)
    print(f"{len(unexplained)} unexplained survivor(s)")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
