"""Threshold calculus: cost function, thresholds, checks, verdicts."""

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ucsets import bounds, cli
from ucsets import (
    BoundReport,
    CapacityError,
    ContradictionError,
    DomainError,
    applicability,
    bound_report,
    closed_form_threshold,
    f_m,
    family_from_masks,
    k_prime,
    make_family,
    random_family,
    union_closure,
    verdict_for,
    VERDICT_LEMMA,
    VERDICT_NOT_COVERED,
    VERDICT_SMALL_M,
    VERDICT_THEOREM,
)
from ucsets.bounds import CALCULUS_M_LIMIT, SMALL_M_LIMIT, _log_gap, k_scan_range, lemma_bound

# Numeric checks of the derivation's intermediate steps, kept as test
# oracles: the library computes thresholds and verdicts, not these.

# Slack for comparing one float derivation step with another.
TOLERANCE = 1e-9

# Uniform k' grid over which maxmin_check takes the max-min.
MAXMIN_GRID_POINTS = 201


@dataclass(frozen=True)
class KPrimeCheck:
    """Both sides of the substitution step m/(k'-2) <= 2^(k'-1) at k = k'."""

    m: int
    k_prime: float
    lhs: float
    rhs: float
    holds: bool


def kprime_check(m: int) -> KPrimeCheck:
    """Evaluate m/(k'-2) against 2^(k'-1) instead of assuming the step.

    The step is equivalent to 2*log2 log2 m <= log2 m, which fails in a
    narrow band (13..15) and holds with equality at m = 16; the check
    reports whichever way it comes out.
    """
    kp = k_prime(m)
    lhs = m / (kp - 2.0)
    rhs = 2.0 ** (kp - 1.0)
    return KPrimeCheck(m=m, k_prime=kp, lhs=lhs, rhs=rhs,
                       holds=lhs <= rhs + TOLERANCE)


@dataclass(frozen=True)
class MaxMinCheck:
    """Numeric check of min_f against its max-min lower bound."""

    m: int
    min_f: float
    grid_max_min: float
    final_lower: float
    holds_grid: bool
    holds_final: bool


def maxmin_check(m: int) -> MaxMinCheck:
    """Check min_k f(m, k) >= max over k' of min(2^(k'-1), m/(k'-2)) numerically.

    k' is sampled on a uniform grid of MAXMIN_GRID_POINTS over
    [3, log2 m + 2].  Also checks the final lower bound
    m / (log2 m - log2 log2 m), which is what the closed-form threshold in
    turn relies on.
    """
    final_lower = m / _log_gap(m, "check")
    fmin = bound_report(m).min_f
    lo, hi = 3.0, max(3.0, math.log2(m) + 2.0)
    best = -math.inf
    for i in range(MAXMIN_GRID_POINTS):
        kp = lo + (hi - lo) * i / (MAXMIN_GRID_POINTS - 1)
        v = min(2.0 ** (kp - 1.0), m / (kp - 2.0))
        if v > best:
            best = v
    return MaxMinCheck(
        m=m,
        min_f=fmin,
        grid_max_min=best,
        final_lower=final_lower,
        holds_grid=fmin >= best - TOLERANCE,
        holds_final=fmin >= final_lower - TOLERANCE,
    )


def hu_fraction(c: float) -> float:
    """The witness-frequency fraction (c-2) / (2*(c-1)) for c > 2.

    Approaches 0 as c -> 2 and 1/2 as c grows; c = 3 gives 1/4.
    """
    if c <= 2:
        raise DomainError(f"fraction defined only for c > 2, got {c}")
    return (c - 2.0) / (2.0 * (c - 1.0))


CHAIN = make_family([{0}, {0, 1}, {0, 1, 2}])
TRI = make_family([{0}, {1}, {0, 1}])


class TestCostFunction:
    def test_values(self):
        assert f_m(13, 3) == 11.0
        assert f_m(13, 4) == 7.5
        assert f_m(13, 5) == pytest.approx(12.333333333333332)
        assert f_m(100, 5) == pytest.approx(41.333333333333336)

    def test_pole_and_domain(self):
        with pytest.raises(DomainError, match="pole"):
            f_m(13, 2)
        with pytest.raises(DomainError):
            f_m(13, 0)
        with pytest.raises(DomainError, match="at least 1"):
            f_m(0, 3)

    def test_scan_range(self):
        assert list(k_scan_range(13)) == [3, 4, 5, 6]
        assert list(k_scan_range(1)) == [3]
        assert list(k_scan_range(2)) == [3]
        assert list(k_scan_range(8192)) == list(range(3, 16))
        # ceil(log2 m) is 61 here; a float log2 rounds it down to 60
        assert k_scan_range(2 ** 60 + 1)[-1] == 63
        with pytest.raises(DomainError):
            k_scan_range(0)


class TestMinF:
    def test_examples(self):
        rep = bound_report(13)
        assert (rep.k_star, rep.min_f) == (4, 7.5)
        rep = bound_report(100)
        assert rep.k_star == 5 and rep.min_f == pytest.approx(41.333333333333336)
        assert bound_report(8192).k_star == 9

    def test_tie_picks_smaller_k(self):
        # f(42, 4) == f(42, 5) == 22.0 exactly; the tie resolves downward
        assert f_m(42, 4) == f_m(42, 5) == 22.0
        rep = bound_report(42)
        assert (rep.k_star, rep.min_f) == (4, 22.0)

    def test_band_edge(self):
        # the smallest m where the minimizer moves past k = 4
        assert bound_report(42).k_star == 4
        assert bound_report(43).k_star == 5

    def test_is_true_minimum_over_scan(self):
        for m in (13, 42, 43, 100, 8192):
            rep = bound_report(m)
            k_star, v = rep.k_star, rep.min_f
            assert v == min(f_m(m, k) for k in k_scan_range(m))
            assert f_m(m, k_star) == v


class TestThresholds:
    def test_ieq1(self):
        assert bound_report(13).ieq1_threshold == 41.0
        assert bound_report(100).ieq1_threshold == pytest.approx(2 * (100 + 41 + 1 / 3))

    def test_closed_form(self):
        assert closed_form_threshold(13) == pytest.approx(40.34, abs=0.01)
        assert closed_form_threshold(2) == 8.0
        assert closed_form_threshold(20) == pytest.approx(58.097475514090306)
        assert closed_form_threshold(100) == pytest.approx(251.12689630459766)

    def test_closed_form_domain(self):
        with pytest.raises(DomainError):
            closed_form_threshold(1)
        with pytest.raises(DomainError):
            closed_form_threshold(0)

    def test_ieq1_dominates_closed_form(self):
        for m in (13, 16, 42, 43, 100, 1000, 10**4, 10**6):
            assert bound_report(m).ieq1_threshold >= closed_form_threshold(m) - TOLERANCE

    def test_closed_form_exceeds_lemma_range(self):
        # the threshold only matters beyond n = 2m; it must sit above that
        for m in (13, 20, 100, 1000, 10**6):
            assert closed_form_threshold(m) > 2 * m


class TestKPrime:
    def test_point(self):
        assert k_prime(13) == pytest.approx(3.8127430037538703)
        assert k_prime(16) == 4.0
        with pytest.raises(DomainError):
            k_prime(1)

    def test_check_fails_in_narrow_band(self):
        for m in (13, 14, 15):
            assert not kprime_check(m).holds
        assert kprime_check(16).holds
        assert kprime_check(17).holds
        assert kprime_check(100).holds
        assert kprime_check(1 << 20).holds

    def test_check_equality_at_sixteen(self):
        c = kprime_check(16)
        assert c.lhs == pytest.approx(8.0)
        assert c.rhs == pytest.approx(8.0)

    def test_check_reports_both_sides(self):
        c = kprime_check(13)
        assert c.lhs == pytest.approx(13 / (c.k_prime - 2))
        assert c.rhs == pytest.approx(2 ** (c.k_prime - 1))


class TestMaxMin:
    def test_holds_at_examples(self):
        for m in (13, 100, 10**6):
            c = maxmin_check(m)
            assert c.holds_grid
            assert c.holds_final

    def test_final_lower_value(self):
        c = maxmin_check(100)
        assert c.final_lower == pytest.approx(25.563448, abs=1e-5)
        assert c.min_f == pytest.approx(41.333333, abs=1e-5)

    def test_domain(self):
        with pytest.raises(DomainError):
            maxmin_check(1)


class TestHuFraction:
    def test_values(self):
        assert hu_fraction(3) == 0.25
        assert hu_fraction(4) == pytest.approx(1 / 3)
        assert hu_fraction(1e9) == pytest.approx(0.5, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            hu_fraction(2)
        with pytest.raises(DomainError):
            hu_fraction(0)

    def test_monotone(self):
        xs = [2.5, 3, 4, 10, 100]
        vals = [hu_fraction(c) for c in xs]
        assert vals == sorted(vals)
        assert all(0 < v < 0.5 for v in vals)


class TestLemmaBound:
    def test_holds(self):
        assert lemma_bound(CHAIN)
        assert lemma_bound(TRI)

    def test_fails_beyond_two_m(self):
        f = union_closure(make_family([{0}, {1}, {2}]))
        assert f.n == 7 and f.universe_size == 3
        assert not lemma_bound(f)

    def test_degenerate(self):
        assert lemma_bound(family_from_masks([]))
        # one member over an empty universe: n = 1 exceeds 2m = 0
        assert not lemma_bound(family_from_masks([0]))


class TestVerdicts:
    def test_first_match_wins(self):
        assert verdict_for(12, 10**9) == VERDICT_SMALL_M
        assert verdict_for(SMALL_M_LIMIT, 10**9) == VERDICT_SMALL_M
        assert verdict_for(13, 26) == VERDICT_LEMMA
        assert verdict_for(13, 40) == VERDICT_THEOREM
        assert verdict_for(13, 41) == VERDICT_NOT_COVERED

    def test_theorem_window(self):
        # between 2m and the closed-form threshold the theorem applies
        t = closed_form_threshold(13)
        assert 26 < math.floor(t) == 40
        for n in range(27, 41):
            assert verdict_for(13, n) == VERDICT_THEOREM


def tie_point(k: int) -> int:
    """(2^(k-1) - 1)(k-2)(k-1): the m at which f(m, k) == f(m, k+1)."""
    return ((1 << (k - 1)) - 1) * (k - 2) * (k - 1)


def least_k_oracle(m: int) -> int:
    """The least k >= 3 with m <= tie_point(k), where f(m, k) <= f(m, k+1)."""
    k = 3
    while tie_point(k) < m:
        k += 1
    return k


def theorem_gap_oracle(m: int) -> int:
    """floor(2m / (log2 m - log2 log2 m)) from 1000-digit decimals.

    A quotient within 10^-900 of an integer is taken as that integer, which
    is exact at m = 2^(2^j), where the denominator is an integer.
    """
    with localcontext() as ctx:
        ctx.prec = 1000
        ln2 = Decimal(2).ln()
        log_m = Decimal(m).ln() / ln2
        q = 2 * m / (log_m - log_m.ln() / ln2)
        nearest = q.to_integral_value()
        return int(nearest if abs(q - nearest) < Decimal(10) ** -900 else q)


# The last k whose tie point + 1 is inside the calculus's range.
LAST_TIE_K = max(k for k in range(3, 1002) if tie_point(k) < CALCULUS_M_LIMIT)


class TestExactDecisions:
    """Cases where a float threshold or a float argmin got the answer wrong."""

    @pytest.mark.parametrize("m, n, verdict", [
        (2 ** 60, 2_348_470_305_640_223_594, VERDICT_NOT_COVERED),
        (2 ** 60, 2_348_470_305_640_223_593, VERDICT_THEOREM),
        (2 ** 45 - 1, 72_149_864_014_774, VERDICT_NOT_COVERED),
        (2 ** 64, 37_529_582_770_650_467_080, VERDICT_THEOREM),
        (2 ** 64, 37_529_582_770_650_467_081, VERDICT_NOT_COVERED),
        (16, 48, VERDICT_THEOREM),
        (16, 49, VERDICT_NOT_COVERED),
        (256, 614, VERDICT_THEOREM),
        (256, 615, VERDICT_NOT_COVERED),
    ])
    def test_verdict_at_threshold(self, m, n, verdict):
        assert verdict_for(m, n) == verdict

    def test_verdict_through_cli(self, capsys):
        for n, verdict in ((2_348_470_305_640_223_594, VERDICT_NOT_COVERED),
                           (2_348_470_305_640_223_593, VERDICT_THEOREM)):
            assert cli.main(["bounds", "--m", str(2 ** 60), "--n", str(n)]) == 0
            assert f"verdict: {verdict}" in capsys.readouterr().out.splitlines()

    def test_argmin_past_float_resolution(self):
        assert bound_report(183068686023373).k_star == least_k_oracle(183068686023373) == 39

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(3, LAST_TIE_K), offset=st.sampled_from((-1, 0, 1)))
    @example(k=3, offset=-1)
    @example(k=LAST_TIE_K, offset=1)
    def test_argmin_at_tie_points(self, k, offset):
        m = tie_point(k) + offset
        assert bound_report(m).k_star == least_k_oracle(m) == (k if offset <= 0 else k + 1)

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(SMALL_M_LIMIT + 1, CALCULUS_M_LIMIT))
    @example(m=2 ** 60)
    @example(m=2 ** 45 - 1)
    @example(m=2 ** 512)
    @example(m=CALCULUS_M_LIMIT)
    # q lies 4.3e-10 below and 3.8e-10 above an integer, too close for the
    # first precision to settle its floor.
    @example(m=168_943_525)
    @example(m=304_766_924)
    def test_verdict_at_threshold_against_oracle(self, m):
        floor = 2 * m + theorem_gap_oracle(m)
        assert verdict_for(m, floor) == VERDICT_THEOREM
        assert verdict_for(m, floor + 1) == VERDICT_NOT_COVERED


class TestBoundReport:
    def test_rich_case(self):
        rep = bound_report(13, 40)
        assert isinstance(rep, BoundReport)
        assert rep.k_star == 4
        assert rep.min_f == 7.5
        assert rep.ieq1_threshold == 41.0
        assert rep.closed_form_threshold == pytest.approx(40.34, abs=0.01)
        assert rep.k_prime == pytest.approx(3.8127, abs=1e-4)
        assert rep.f_values == {k: f_m(13, k) for k in (3, 4, 5, 6)}
        assert rep.verdict == VERDICT_THEOREM
        assert rep.alarm is None
        assert rep.notes == ()

    def test_no_verdict_without_n(self):
        assert bound_report(13).verdict is None

    def test_total_for_empty_universe(self):
        rep = bound_report(0, 1)
        assert rep.k_star is None and rep.min_f is None
        assert rep.ieq1_threshold is None and rep.closed_form_threshold is None
        assert rep.verdict == VERDICT_SMALL_M
        assert any("empty" in s for s in rep.notes)

    def test_total_for_single_element(self):
        rep = bound_report(1, 2)
        assert rep.k_star == 3
        assert rep.min_f == f_m(1, 3) == -1.0
        assert rep.closed_form_threshold is None
        assert any("undefined" in s for s in rep.notes)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_closed_form_noted_below_its_regime(self, m):
        rep = bound_report(m)
        assert (rep.k_prime, rep.closed_form_threshold) == (k_prime(m), closed_form_threshold(m))
        below = ("closed-form threshold evaluated below its intended regime",)
        assert rep.notes == (below if m <= 3 else ())

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            bound_report(-1)

    def test_largest_m_is_finite(self):
        m = 2 ** 1000
        rep = bound_report(m, m)
        values = [rep.min_f, rep.ieq1_threshold, rep.k_prime,
                  rep.closed_form_threshold, *rep.f_values.values()]
        assert all(math.isfinite(v) for v in values)
        assert rep.verdict == VERDICT_LEMMA

    @pytest.mark.parametrize("m", [2 ** 1000 + 1, 1 << 1023, 1 << 1030],
                             ids=["2^1000+1", "2^1023", "2^1030"])
    def test_past_the_limit_is_a_capacity_error(self, m):
        # Past about 2^1022 these overflow float conversion; the limit is
        # checked in the library, not only by the bounds command.
        for call in (lambda: bound_report(m, 5), lambda: bound_report(m),
                     lambda: f_m(m, 3), lambda: closed_form_threshold(m),
                     lambda: k_prime(m), lambda: kprime_check(m),
                     lambda: maxmin_check(m)):
            with pytest.raises(CapacityError, match=r"m <= 2\^1000"):
                call()

    def test_theorem_gap_computed_once_per_m(self, monkeypatch):
        # The gap is cached per m; each report evaluates its own f values.
        bounds._theorem_gap.cache_clear()
        calls = []
        real_f = bounds.f_m
        monkeypatch.setattr(bounds, "f_m", lambda m, k: calls.append(m) or real_f(m, k))
        first = bound_report(97, 300)
        second = bound_report(97, 150)
        third = bound_report(97, 200)
        assert len(calls) == 3 * len(k_scan_range(97))
        assert first.f_values == second.f_values
        assert (first.verdict, second.verdict, third.verdict) \
            == (VERDICT_NOT_COVERED, VERDICT_LEMMA, VERDICT_THEOREM)
        assert [verdict_for(97, n) for n in (244, 245)] == [VERDICT_THEOREM, VERDICT_NOT_COVERED]
        assert bounds._theorem_gap.cache_info()[:2] == (3, 1)  # (hits, misses)
        assert verdict_for(98, 300) == VERDICT_NOT_COVERED
        assert bounds._theorem_gap.cache_info().misses == 2

    def test_reports_share_no_mutable_state(self):
        first = bound_report(13, 40)
        first.f_values[4] = -1.0
        first.f_values.clear()
        second = bound_report(13, 40)
        assert second.f_values == {k: f_m(13, k) for k in (3, 4, 5, 6)}
        assert applicability(CHAIN).f_values is not applicability(CHAIN).f_values


class TestApplicability:
    def test_small_family(self):
        rep = applicability(CHAIN)
        assert rep.verdict == VERDICT_SMALL_M
        assert rep.alarm is None

    def test_alarm_on_empty_witness_set(self):
        # white-box: an invalid input (not union-closed, no majority
        # element) exercises the alarm branch the check exists for
        f = make_family([{0}, {1}, {2}])
        rep = applicability(f)
        assert rep.verdict == VERDICT_SMALL_M
        assert rep.alarm is not None
        assert "counterexample" in rep.alarm

    def test_no_alarm_on_degenerate(self):
        rep = applicability(family_from_masks([0]))
        assert rep.alarm is None

    def test_alarm_exactly_on_covered_families_without_witnesses(
            self, separating_corpora, monkeypatch):
        # No family alarms while its witness set is intact; with every
        # witness set emptied, exactly the families the rules call covered
        # (n >= 1, m >= 1, a verdict other than not-covered) alarm.
        families = [f for corpus in separating_corpora.values() for f in corpus]
        families += [random_family(13, 6, seed) for seed in (4, 19, 26)]
        families += [random_family(16, 10, seed) for seed in range(3)]
        reports = [applicability(f) for f in families]
        assert {rep.verdict for rep in reports} == {VERDICT_SMALL_M, VERDICT_LEMMA,
                                                    VERDICT_THEOREM, VERDICT_NOT_COVERED}
        assert not any(rep.alarm for rep in reports)
        monkeypatch.setattr(bounds, "frankl_witnesses", lambda f: [])
        covered = [f.n >= 1 and f.universe_size >= 1
                   and verdict_for(f.universe_size, f.n) != VERDICT_NOT_COVERED
                   for f in families]
        assert any(covered) and not all(covered)
        alarm = "covered family has an empty witness set (potential counterexample)"
        assert [applicability(f).alarm for f in families] \
            == [alarm if c else None for c in covered]
