"""Member-count thresholds and applicability verdicts.

The integer cost function f(m, k) = 2^(k-1) + m/(k-2) - k - 3 drives the
main member-count threshold 2*(m + min_k f(m, k)).  Its closed-form
relaxation 2*(m + m/(log2 m - log2 log2 m)) is cheaper to state; both are
computed here, with the applicability verdicts that rest on them.

The theorem verdict and the minimizer k* are decided exactly, in integers
and error-bounded decimals; floats are only the printed values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

from .errors import CapacityError, ContradictionError, DomainError
from .family import SetFamily, frankl_witnesses
from .witnesses import falgas_ravry_chain, verify_chain_witness

VERDICT_SMALL_M = "covered-by-small-m"
VERDICT_LEMMA = "covered-by-lemma"
VERDICT_THEOREM = "covered-by-theorem"
VERDICT_NOT_COVERED = "not-covered"

SMALL_M_LIMIT = 12
# Every calculus value is at most about 4m, so up to this m all of them are
# finite floats; somewhat past 2^1022 the conversions overflow.
CALCULUS_M_LIMIT = 1 << 1000


def _check_m(m: int, least: int = 1, what: str = "f(m, k)") -> None:
    """The calculus's one range check: least <= m <= CALCULUS_M_LIMIT."""
    if m < least:
        raise DomainError(
            f"m must be at least {least}, got {m}; {what} is undefined for m <= {least - 1}")
    if m > CALCULUS_M_LIMIT:
        raise CapacityError(
            "threshold calculus supports m <= 2^1000, where every value is a finite "
            f"float; got a {m.bit_length()}-bit m")


def f_m(m: int, k: int) -> float:
    """Evaluate 2^(k-1) + m/(k-2) - k - 3; defined for k >= 3, 1 <= m <= 2^1000."""
    _check_m(m)
    if k <= 2:
        raise DomainError(f"f(m, k) has a pole at k = 2; got k = {k}")
    return float(1 << (k - 1)) + m / (k - 2) - k - 3


def k_scan_range(m: int) -> range:
    """Integer k values scanned for k*: 3 .. ceil(log2 m) + 2 inclusive."""
    _check_m(m)
    return range(3, max(3, (m - 1).bit_length() + 2) + 1)


def _log_gap(m: int, what: str) -> float:
    """log2 m - log2 log2 m, undefined for m <= 1; what names the caller's value."""
    _check_m(m, least=2, what=what)
    lg = math.log2(m)
    return lg - math.log2(lg)


def closed_form_threshold(m: int) -> float:
    """The relaxed threshold 2 * (m + m / (log2 m - log2 log2 m)).

    Undefined for m <= 1.  m = 2 evaluates to 8 with denominator 1, below
    the regime the threshold is meant for.
    """
    return 2.0 * (m + m / _log_gap(m, "threshold"))


def k_prime(m: int) -> float:
    """The analysis point k' = log2 m - log2 log2 m + 2."""
    return _log_gap(m, "k'") + 2.0


def _theorem_gap(m: int) -> int:
    """floor(2m / (log2 m - log2 log2 m)), the most by which the theorem lets n pass 2m.

    For m >= 13.  At m = 2^(2^j) the denominator is the integer 2^j - j.
    Elsewhere the quotient q is irrational, so decimals settle its floor.
    Each step below is correctly rounded, a relative error of at most
    5*10^-prec, and for m >= 13 the chain keeps q within 15 such errors of
    its value.  The floor is taken when q*(1 - eps) and q*(1 + eps) agree
    on it, eps = 10^(3-prec) covering twice that error plus the rounding of
    the two products; otherwise the precision doubles.
    """
    lg = m.bit_length() - 1
    if m == 1 << lg and lg & (lg - 1) == 0:
        return 2 * m // (lg - lg.bit_length() + 1)
    from decimal import Decimal, localcontext
    with localcontext() as ctx:
        # m's digits plus a guard: q's fraction is then resolved to about 1e-7.
        ctx.prec = len(str(m)) + 10
        while True:
            ln2 = Decimal(2).ln()
            log_m = Decimal(m).ln() / ln2
            q = 2 * m / (log_m - log_m.ln() / ln2)
            eps = Decimal(1).scaleb(3 - ctx.prec)
            floor = int(q * (1 - eps))
            if floor == int(q * (1 + eps)):
                return floor
            ctx.prec *= 2


def lemma_bound(f: SetFamily) -> bool:
    """True when n <= 2m, re-deriving the mechanism as a sanity check.

    When the bound holds for a non-degenerate separating union-closed
    family, the chain witness yields m pairwise distinct members all
    containing the top-frequency element, so its frequency is at least
    m >= n/2 and the witness property follows.  A chain that fails
    verify_chain_witness is a contradiction, not report data.
    """
    m, n = f.universe_size, f.n
    ok = n <= 2 * m
    if ok and n >= 1 and m >= 1:
        issues = verify_chain_witness(f, falgas_ravry_chain(f))
        if issues:
            raise ContradictionError(issues[0])
    return ok


@dataclass(frozen=True)
class BoundReport:
    """Threshold calculus for a given universe size, plus optional verdict."""

    m: int
    n: int | None
    f_values: dict[int, float]
    k_star: int | None
    min_f: float | None
    ieq1_threshold: float | None
    k_prime: float | None
    closed_form_threshold: float | None
    verdict: str | None
    alarm: str | None
    notes: tuple[str, ...]


def verdict_for(m: int, n: int) -> str:
    """Coverage rules, first match wins: small m, the 2m bound, the threshold."""
    if m <= SMALL_M_LIMIT:
        return VERDICT_SMALL_M
    if n <= 2 * m:
        return VERDICT_LEMMA
    if n - 2 * m <= _calculus(m)[1]:
        return VERDICT_THEOREM
    return VERDICT_NOT_COVERED


@lru_cache(maxsize=256)
def _calculus(m: int) -> tuple[BoundReport, int | None]:
    """The report without n and the theorem gap: each evaluated once per m.

    Callers check 0 <= m; each report gets its own copy of f_values.  The
    gap is None where the small-m verdict makes it moot.
    """
    notes: list[str] = []
    if m >= 1:
        f_values = {k: f_m(m, k) for k in k_scan_range(m)}
        # Ranked by f(m, k) + 3 times a common multiple of every k - 2, an
        # exact integer; min keeps the first of equal values, so ties go to
        # the smaller k.  The scan deliberately starts at k = 3 rather than
        # assuming where the minimum lands, so the location claim checked by
        # the test suite (k* equals the least k >= 3 with
        # (2^(k-1) - 1)(k-2)(k-1) >= m, is at most ceil(log2 m), is 4 for
        # m = 13..42 and at least 5 from m = 43 on) is verified against
        # this result instead of being baked in.
        scale = math.lcm(*(k - 2 for k in f_values))
        k_star = min(f_values, key=lambda k: m * scale // (k - 2) + ((1 << (k - 1)) - k) * scale)
        fmin = f_values[k_star]
        ieq1 = 2.0 * (m + fmin)
    else:
        f_values, k_star, fmin, ieq1 = {}, None, None, None
        notes.append("universe is empty; threshold calculus skipped")
    if m >= 2:
        kp = k_prime(m)
        closed = closed_form_threshold(m)
        if m <= 3:
            notes.append("closed-form threshold evaluated below its intended regime")
    else:
        kp = closed = None
        if m == 1:
            notes.append("closed-form threshold undefined for m <= 1")
    report = BoundReport(m=m, n=None, f_values=f_values, k_star=k_star, min_f=fmin,
                         ieq1_threshold=ieq1, k_prime=kp, closed_form_threshold=closed,
                         verdict=None, alarm=None, notes=tuple(notes))
    return report, _theorem_gap(m) if m > SMALL_M_LIMIT else None


def bound_report(m: int, n: int | None = None) -> BoundReport:
    """Assemble the full calculus for universe size m.

    Total for every 0 <= m <= 2^1000: fields whose formulas degenerate
    (m <= 1) come back None with an explanatory note, so callers
    classifying degenerate families still get a report.  Past 2^1000 the
    floats would overflow, and CapacityError is raised.
    """
    _check_m(m, least=0, what="the threshold calculus")
    calc, _ = _calculus(m)
    return replace(calc, n=n, f_values=dict(calc.f_values),
                   verdict=verdict_for(m, n) if n is not None else None)


def applicability(f: SetFamily) -> BoundReport:
    """Classify a family against the coverage rules and cross-check it.

    pre: f union-closed, separating, validated.  The report carries the
    _coverage_alarm of f; only that alarm, which no correct family raises,
    costs a second report.
    """
    rep = bound_report(f.universe_size, f.n)
    alarm = _coverage_alarm(f)
    return replace(rep, alarm=alarm) if alarm else rep


def _coverage_alarm(f: SetFamily) -> str | None:
    """The alarm of a family the coverage rules call covered whose witness
    set is empty, a potential counterexample; None for every other family.

    pre: as for applicability.  The corpus battery asks for this alone,
    without the rest of the report.
    """
    m, n = f.universe_size, f.n
    if n < 1 or m < 1 or verdict_for(m, n) == VERDICT_NOT_COVERED or frankl_witnesses(f):
        return None
    return "covered family has an empty witness set (potential counterexample)"
