"""Acceptance gate: seven end-to-end criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Each criterion prints exactly one line starting with "ACCEPTANCE"
and then asserts; a criterion that cannot be met by the implemented
definitions fails honestly with the analysis in its assertion message.
"""

import math
import time

from ucsets import (
    counting_audit,
    element_frequencies,
    enumerate_union_closed,
    falgas_ravry_chain,
    family_from_masks,
    family_to_json_dict,
    family_to_text,
    frankl_witnesses,
    min_f,
    minimal_transversal,
    parse_family_json,
    parse_family_text,
    random_family,
    separating_quotient,
    splitmix64,
    to_json,
    union_closure,
    verify_chain_witness,
    verify_transversal,
    closed_form_threshold,
    f_m,
    ieq1_threshold,
)
from ucsets.bounds import k_scan_range

from conftest import (
    RANDOM_CORPUS_GENERATORS,
    RANDOM_CORPUS_M,
    RANDOM_CORPUS_SEED,
    RANDOM_CORPUS_SIZE,
)

# Slack for comparing one float derivation step with another.
TOLERANCE = 1e-9


def _report(num: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else f"FAIL — {failures[0]}"
    print(f"ACCEPTANCE {num} ({name}): {status}")
    assert not failures, f"criterion {num} ({name}):\n" + "\n".join(failures)


def test_criterion_1_exhaustive_conjecture_check():
    """Every validated union-closed family with m <= 4 has a witness."""
    start = time.perf_counter()
    failures = []
    scanned = 0
    for m in range(1, 5):
        for f in enumerate_union_closed(m, family_filter="validated"):
            scanned += 1
            if not frankl_witnesses(f):
                failures.append(f"no witness for {f.members} (m={m})")
    elapsed = time.perf_counter() - start
    if scanned != 2 + 8 + 90 + 4542:
        failures.append(f"scan covered {scanned} families, expected 4642")
    if elapsed >= 30.0:
        failures.append(f"scan took {elapsed:.1f}s, budget is 30s")
    _report(1, "exhaustive conjecture check m<=4", failures)


def test_criterion_2_chain_witness_suite(separating_corpora):
    """Chain invariants hold and freq(x_m) >= m on every separating family."""
    failures = []
    checked = 0
    for m, corpus in separating_corpora.items():
        for f in corpus:
            if f.n == 0:
                continue  # no members, no chain
            w = falgas_ravry_chain(f)
            issues = verify_chain_witness(f, w)
            if issues:
                failures.append(f"{f.members}: {issues[0]}")
                continue
            if f.universe_size >= 1:
                top = w.order[-1]
                if element_frequencies(f)[top] < f.universe_size:
                    failures.append(
                        f"{f.members}: top element frequency below m")
            checked += 1
    if checked < 4500:
        failures.append(f"only {checked} families checked")
    _report(2, "chain witness suite", failures)


def test_criterion_3_transversal_suite(separating_corpora, random_corpus):
    """Transversal invariants hold on the scan corpus and 1000 random ones."""
    failures = []
    assert len(random_corpus) == RANDOM_CORPUS_SIZE
    corpora = list(separating_corpora.values()) + [random_corpus]
    for corpus in corpora:
        for f in corpus:
            issues = verify_transversal(f, minimal_transversal(f))
            if issues:
                failures.append(f"{f.members}: {issues[0]}")
    _report(3, "transversal and pattern-family suite", failures)


def test_criterion_4_counting_inequality(separating_corpora, random_corpus):
    """n <= k(m+c) + (2^k - k 2^(k-1)) + (m-k)(1-k) on both corpora."""
    failures = []
    for corpus in list(separating_corpora.values()) + [random_corpus]:
        for f in corpus:
            audit = counting_audit(f, minimal_transversal(f))
            if not audit.inequality_holds:
                failures.append(
                    f"{f.members}: n={audit.n} exceeds rhs={audit.rhs}")
    _report(4, "counting inequality", failures)


def _tie_low_minimizer(m: int) -> int:
    """The least k >= 3 minimizing f(m, k), in exact integer arithmetic.

    f(m, k+1) - f(m, k) = 2^(k-1) - 1 - m / ((k-2)(k-1)), which increases
    with k, so f(m, .) is convex for k >= 3 and the first k whose step is
    non-negative is the minimizer, ties going to the smaller k.
    """
    k = 3
    while ((1 << (k - 1)) - 1) * (k - 2) * (k - 1) < m:
        k += 1
    return k


def test_criterion_5_bound_calculus():
    """Threshold value, convexity, minimizer location, threshold ordering.

    Minimizer location, for every m: (a) min_f agrees with the integer
    oracle; (b) it is at most ceil(log2 m), two steps inside the scan range,
    so the scan finds the global minimum; (c) it is 4 for m <= 42, since
    f(m, 4) - f(m, 5) = m/6 - 7; (d) it is at least 5 for m >= 43, so the
    window [5, ceil(log2 m)] holds wherever it contains the minimizer.
    """
    start = time.perf_counter()
    failures = []

    t13 = closed_form_threshold(13)
    if abs(t13 - 40.34) > 0.01:
        failures.append(f"closed_form_threshold(13) = {t13}, expected 40.34 ± 0.01")

    argmin_misses = []
    for m in range(13, 4097):
        ks = list(k_scan_range(m))
        values = [f_m(m, k) for k in ks]

        diffs = [values[i + 1] - values[i] for i in range(len(values) - 1)]
        if any(d2 < d1 - TOLERANCE for d1, d2 in zip(diffs, diffs[1:])):
            failures.append(f"f_{m} is not discretely convex on the scan range")

        k_star, fmin = min_f(m)
        ceil_lg = math.ceil(math.log2(m))
        oracle = _tie_low_minimizer(m)
        if k_star != oracle:
            argmin_misses.append(
                f"m={m}: argmin {k_star} != integer oracle {oracle}")
        if k_star > ceil_lg:
            argmin_misses.append(
                f"m={m}: argmin {k_star} > ceil(log2 m) = {ceil_lg}")
        if m <= 42 and k_star != 4:
            argmin_misses.append(f"m={m}: argmin {k_star} != 4 for m <= 42")
        if m >= 43 and k_star < 5:
            argmin_misses.append(f"m={m}: argmin {k_star} < 5 for m >= 43")

        if ieq1_threshold(m) < closed_form_threshold(m) - 1e-9:
            failures.append(f"threshold ordering fails at m={m}")

        lg = math.log2(m)
        if fmin < m / (lg - math.log2(lg)) - 1e-9:
            failures.append(f"min_f lower bound fails at m={m}")

    if argmin_misses:
        failures.append(
            f"minimizer location check fails {len(argmin_misses)} times, "
            f"first at {argmin_misses[0]}")

    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"bound calculus sweep took {elapsed:.1f}s, budget is 5s")

    _report(5, "bound calculus m=13..4096", failures)


def test_criterion_6_enumeration_oracle_counts():
    """Separating union-closed subfamily counts: 4 at m=1, 12 at m=2, m=3 stable."""
    failures = []
    counts = {m: sum(1 for _ in enumerate_union_closed(m)) for m in (1, 2, 3)}
    if counts[1] != 4:
        failures.append(f"m=1 count {counts[1]} != 4")
    if counts[2] != 12:
        failures.append(f"m=2 count {counts[2]} != 12")
    rerun = sum(1 for _ in enumerate_union_closed(3))
    if counts[3] != rerun:
        failures.append(f"m=3 count unstable across runs: {counts[3]} vs {rerun}")
    if counts[3] != 96:
        failures.append(f"m=3 count {counts[3]} changed from its pinned value 96")
    _report(6, "enumeration oracle counts", failures)


def test_criterion_7_determinism_and_round_trip(separating_corpora,
                                                random_corpus):
    """Bit-identical generation, parse/serialize identity, idempotence."""
    failures = []

    a = random_family(RANDOM_CORPUS_M, RANDOM_CORPUS_GENERATORS,
                      RANDOM_CORPUS_SEED)
    b = random_family(RANDOM_CORPUS_M, RANDOM_CORPUS_GENERATORS,
                      RANDOM_CORPUS_SEED)
    if family_to_text(a) != family_to_text(b):
        failures.append("text serialization differs between two runs")
    if to_json(family_to_json_dict(a)) != to_json(family_to_json_dict(b)):
        failures.append("JSON serialization differs between two runs")
    if a.members[:6] != (9202, 12196, 12278, 27997, 28309, 28597) or a.n != 79:
        failures.append("generated family drifted from its pinned form")

    for corpus in list(separating_corpora.values()) + [random_corpus]:
        for f in corpus:
            if parse_family_text(family_to_text(f)) != f:
                failures.append(f"text round trip broke {f.members}")
            if parse_family_json(to_json(family_to_json_dict(f))) != f:
                failures.append(f"JSON round trip broke {f.members}")

    cases = 0
    stream = splitmix64(2024)
    for _ in range(10_000):
        m = 1 + next(stream) % 8
        full = (1 << m) - 1
        masks = {next(stream) & full for _ in range(1 + next(stream) % 6)}
        f = family_from_masks(sorted(masks))
        closed = union_closure(f)
        if union_closure(closed) != closed:
            failures.append(f"closure not idempotent on {f.members}")
        q, _ = separating_quotient(closed)
        q2, classes2 = separating_quotient(q)
        if q2 != q or any(len(cls) != 1 for cls in classes2):
            failures.append(f"quotient not idempotent on {f.members}")
        cases += 1
    if cases < 10_000:
        failures.append(f"only {cases} idempotence cases generated")

    _report(7, "determinism and round trip", failures)
