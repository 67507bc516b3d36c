"""Enumeration, canonical forms, the seeded generator, corpus verification."""

import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest

from ucsets import (
    CapacityError,
    ContradictionError,
    DomainError,
    canonical_form,
    corpus_verify,
    enumerate_union_closed,
    family_from_masks,
    find_union_gap,
    is_separating,
    make_family,
    minimal_transversal,
    random_family,
    splitmix64,
    verdict_for,
)
from ucsets import bounds, family, search, witnesses
from ucsets.family import closure_of_masks
from ucsets.search import (
    CANONICAL_LIMIT,
    EXHAUSTIVE_LIMIT,
    FILTERS,
)

# union-closed subfamily counts of the m-element power set, by filter
EXPECTED_COUNTS = {
    #  m: (all, validated, separating)
    0: (2, 2, 2),
    1: (4, 2, 4),
    2: (14, 8, 12),
    3: (122, 90, 96),
    4: (4960, 4542, 4404),
}

# relabeling classes of union-closed subfamilies of the m-element power
# set, by filter, from a Burnside count over every subfamily code (one
# permutation per cycle type of S_m, weighted by class size) that never
# calls canonical_form
EXPECTED_CLASSES = {
    #  m: (all, validated, separating)
    0: (2, 2, 2),
    1: (4, 2, 4),
    2: (10, 6, 8),
    3: (38, 28, 28),
    4: (368, 330, 304),
}


class TestExhaustiveEnumeration:
    @pytest.mark.parametrize("m", sorted(EXPECTED_COUNTS))
    def test_count_table(self, m):
        expected = EXPECTED_COUNTS[m]
        got = tuple(
            sum(1 for _ in enumerate_union_closed(m, family_filter=filt))
            for filt in FILTERS
        )
        assert got == expected

    def test_stream_order_is_stable(self):
        first = [f.members for f in enumerate_union_closed(2)]
        second = [f.members for f in enumerate_union_closed(2)]
        assert first == second
        assert first[:4] == [(), (0,), (1,), (0, 1)]

    def test_yields_are_union_closed_and_compressed(self):
        for f in enumerate_union_closed(3):
            assert find_union_gap(f) is None
            assert f.covers_universe
            assert is_separating(f)

    def test_validated_filter_covers_ambient(self):
        for f in enumerate_union_closed(3, family_filter="validated"):
            assert f.universe_size == 3
            assert f.covers_universe

    def test_capacity(self):
        with pytest.raises(CapacityError, match="m <= 4"):
            list(enumerate_union_closed(EXHAUSTIVE_LIMIT + 1))

    @pytest.mark.parametrize("mode", ["exhaustive", "generators"])
    def test_negative_m_is_a_domain_error(self, mode):
        with pytest.raises(DomainError, match=r"^m must be at least 0, got -1$"):
            enumerate_union_closed(-1, mode=mode)

    def test_bad_filter_and_mode(self):
        with pytest.raises(DomainError, match="filter"):
            list(enumerate_union_closed(2, family_filter="spanning"))
        with pytest.raises(DomainError, match="mode"):
            list(enumerate_union_closed(2, mode="sampled"))

    def test_max_generators_refused_at_call(self):
        # Not iterated: exhaustive mode has no generator budget to apply.
        for g in (0, 1, 64):
            with pytest.raises(DomainError, match="generator mode only"):
                enumerate_union_closed(3, max_generators=g)


class TestGeneratorEnumeration:
    def test_agrees_with_exhaustive_up_to_relabeling(self):
        for m in range(4):
            exhaustive = {
                canonical_form(f).members
                for f in enumerate_union_closed(m, family_filter="separating")
            }
            generated = {
                f.members
                for f in enumerate_union_closed(m, mode="generators",
                                                family_filter="separating")
            }
            assert generated == exhaustive
            assert len(exhaustive) == EXPECTED_CLASSES[m][2]

    @pytest.mark.parametrize("m", sorted(EXPECTED_CLASSES))
    def test_burnside_class_counts(self, m):
        got = tuple(
            sum(1 for _ in enumerate_union_closed(m, mode="generators",
                                                  family_filter=filt))
            for filt in FILTERS
        )
        assert got == EXPECTED_CLASSES[m]

    def test_yields_canonical_without_duplicates(self):
        out = [f.members for f in
               enumerate_union_closed(3, mode="generators")]
        assert len(out) == len(set(out)) == EXPECTED_CLASSES[3][2]

    def test_bounded_generators(self):
        out = list(enumerate_union_closed(4, mode="generators",
                                          family_filter="separating",
                                          max_generators=2))
        assert len(out) == 7
        for f in out:
            assert find_union_gap(f) is None
            assert f.covers_universe

    def test_capacity(self):
        for g in (2, None):
            with pytest.raises(CapacityError, match="m <= 4"):
                list(enumerate_union_closed(EXHAUSTIVE_LIMIT + 1, mode="generators",
                                            max_generators=g))
        # At most 8 of the 16 masks of P([4]) are join-irreducible in one
        # family, so g = 8 already yields every class.
        assert sum(1 for _ in enumerate_union_closed(
            4, mode="generators", max_generators=7)) == 300
        assert sum(1 for _ in enumerate_union_closed(
            4, mode="generators", max_generators=8)) == 304

    def test_capacity_checked_at_call(self):
        # Not iterated: the refusal comes before any family is built.
        for m, g in ((5, 3), (6, 2), (6, 64), (5, None)):
            with pytest.raises(CapacityError, match="m <= 4"):
                enumerate_union_closed(m, mode="generators", max_generators=g)


class TestCanonicalForm:
    def test_examples(self):
        f = make_family([{1}, {0, 1}])
        assert canonical_form(f).members == (0b01, 0b11)
        chain = make_family([{2}, {1, 2}, {0, 1, 2}])
        assert canonical_form(chain).members == (0b001, 0b011, 0b111)

    def test_idempotent(self):
        for f in enumerate_union_closed(3):
            c = canonical_form(f)
            assert canonical_form(c) == c

    def test_identifies_relabelings(self):
        a = make_family([{0}, {0, 1}, {0, 2}, {0, 1, 2}])
        b = make_family([{2}, {0, 2}, {1, 2}, {0, 1, 2}])
        assert canonical_form(a) == canonical_form(b)
        assert a.members != b.members

    def test_capacity(self):
        wide = family_from_masks([1 << 8])
        with pytest.raises(CapacityError, match="m <= 8"):
            canonical_form(wide)
        assert canonical_form(family_from_masks([1 << (CANONICAL_LIMIT - 1)]))


class TestSplitmix64:
    def test_reference_vector(self):
        g = splitmix64(0)
        assert [next(g) for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_determinism_and_range(self):
        a = splitmix64(42)
        b = splitmix64(42)
        va = [next(a) for _ in range(100)]
        vb = [next(b) for _ in range(100)]
        assert va == vb
        assert all(0 <= v < 1 << 64 for v in va)

    def test_seed_sensitivity(self):
        assert next(splitmix64(1)) != next(splitmix64(2))


class TestRandomFamily:
    def test_regression_pin(self):
        f = random_family(16, 10, 42)
        assert f.universe_size == 16
        assert f.n == 79
        assert f.members[:6] == (9202, 12196, 12278, 27997, 28309, 28597)

    def test_deterministic(self):
        assert random_family(16, 10, 42) == random_family(16, 10, 42)
        assert random_family(16, 10, 42) != random_family(16, 10, 43)

    def test_outputs_are_validated_separating_union_closed(self):
        for seed in range(20):
            f = random_family(8, 5, seed)
            assert f.covers_universe
            assert find_union_gap(f) is None
            assert is_separating(f)

    def test_small_universe_saturates(self):
        f = random_family(4, 20, 7)
        assert f.n == 14
        assert f.members == tuple(v for v in range(1, 16) if v != 4)

    def test_zero_generators(self):
        f = random_family(5, 0, 1)
        assert f.universe_size == 0 and f.n == 0

    def test_draws_are_not_collected(self):
        # At m = 4 the closure holds at most 15 members, however many draws.
        tracemalloc.start()
        try:
            random_family(4, 100_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 250_000

    def test_draws_stop_at_saturation(self, monkeypatch):
        # Once the closure holds all 15 non-empty subsets of a 4-element
        # universe no draw can change it, so none is taken.
        drawn = []

        def spy(seed):
            for v in splitmix64(seed):
                drawn.append(v)
                yield v

        prefix = []
        for v in splitmix64(0):
            prefix.append(v & 15)
            if len(closure_of_masks(filter(None, prefix))) == 15:
                break
        everything = [v & 15 for v, _ in zip(splitmix64(0), range(2_000))]
        monkeypatch.setattr(search, "splitmix64", spy)
        f = random_family(4, 100_000, 0)
        assert len(drawn) == len(prefix) < 100
        assert f.members == tuple(closure_of_masks(filter(None, everything))) \
            == tuple(range(1, 16))

    def test_domain_and_capacity(self):
        with pytest.raises(DomainError, match=r"^m must be at least 1, got 0$"):
            random_family(0, 3, 1)
        with pytest.raises(CapacityError):
            random_family(65, 3, 1)
        with pytest.raises(DomainError):
            random_family(4, -1, 1)


class TestClosureOracle:
    def test_matches_naive_fixpoint(self):
        def naive(masks):
            s = set(masks)
            while True:
                extra = {a | b for a in s for b in s} - s
                if not extra:
                    return sorted(s)
                s |= extra

        for seed in range(10):
            g = splitmix64(seed)
            draws = [v for v in (next(g) & 0b111111 for _ in range(5)) if v]
            assert sorted(closure_of_masks(draws)) == naive(draws)


class TestCorpusVerify:
    def test_empty_corpus_is_ok(self):
        rep = corpus_verify([])
        assert rep.total_families == 0
        assert rep.ok

    def test_rejects_unvalidated(self):
        rep = corpus_verify([family_from_masks([0b01], universe_size=2)])
        assert not rep.ok
        assert rep.rejections == [
            ("{{0}}", "not validated: element ids [1] occur in no member")]
        assert rep.union_closed_count == 0

    def test_rejects_union_gap(self):
        rep = corpus_verify([make_family([{0}, {1}]), make_family([{0, 1}, {2}])])
        assert not rep.ok
        assert rep.rejections == [
            ("{{0},{1}}", "not union-closed: the union of {0} and {1} is missing"),
            ("{{0,1},{2}}", "not union-closed: the union of {0,1} and {2} is missing")]

    def test_tallies_non_separating(self):
        rep = corpus_verify([make_family([{0, 1}])])
        assert rep.ok
        assert rep.total_families == 1
        assert rep.union_closed_count == 1
        assert rep.separating_count == 0

    def test_clean_sweep_small_corpora(self, separating_corpora):
        for m, corpus in separating_corpora.items():
            if m > 3:
                continue
            rep = corpus_verify(corpus)
            assert rep.ok, (m, rep)
            assert rep.total_families == EXPECTED_COUNTS[m][2]
            assert rep.separating_count == rep.total_families

    def test_clean_sweep_random_families(self):
        corpus = [random_family(10, 6, 100 + i) for i in range(25)]
        rep = corpus_verify(corpus)
        assert rep.ok, rep
        assert rep.separating_count == 25

    def test_canonical_invariance(self):
        corpus = [canonical_form(f) for f in enumerate_union_closed(2)]
        rep = corpus_verify(corpus)
        assert rep.ok


# Seeds 0..399 of random_family(m, g, seed) for generator counts that reach
# the theorem band 2m < n <= 2(m + m/(log2 m - log2 log2 m)).
# (m, g): (verdict counts, minimal-transversal k histogram in the band)
THEOREM_BAND_GRID = {
    (16, 6): ({"covered-by-theorem": 198, "covered-by-lemma": 149,
               "covered-by-small-m": 48, "not-covered": 5}, {1: 38, 2: 158, 3: 2}),
    (24, 7): ({"covered-by-theorem": 255, "covered-by-lemma": 18,
               "not-covered": 127}, {1: 50, 2: 205}),
    (32, 7): ({"covered-by-theorem": 283, "covered-by-lemma": 22,
               "not-covered": 95}, {1: 62, 2: 220, 3: 1}),
    (64, 7): ({"covered-by-theorem": 187, "covered-by-lemma": 213}, {1: 73, 2: 114}),
}


@pytest.mark.parametrize("m, g", sorted(THEOREM_BAND_GRID))
def test_theorem_band_seed_grid(m, g):
    verdicts, k_histogram = THEOREM_BAND_GRID[m, g]
    families = [random_family(m, g, seed) for seed in range(400)]
    got = [verdict_for(f.universe_size, f.n) for f in families]
    assert Counter(got) == verdicts
    band = [f for f, v in zip(families, got) if v == bounds.VERDICT_THEOREM]
    assert Counter(minimal_transversal(f).u_hat.bit_count() for f in band) == k_histogram
    assert corpus_verify(band).ok


class TestOnePass:
    """corpus_verify builds each witness once and checks each claim once."""

    def test_one_chain_and_one_transversal_per_family(self, monkeypatch,
                                                       separating_corpora):
        calls = {"falgas_ravry_chain": 0, "minimal_transversal": 0}

        def counting(name):
            original = getattr(witnesses, name)

            def wrapper(f):
                calls[name] += 1
                return original(f)
            return wrapper

        for name in calls:
            wrapper = counting(name)
            for module in (search, witnesses, bounds):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        for m in range(4):
            for f in separating_corpora[m]:
                for name in calls:
                    calls[name] = 0
                rep = corpus_verify([f])
                assert rep.ok and rep.separating_count == 1
                assert calls["falgas_ravry_chain"] <= 1, f
                assert calls["minimal_transversal"] == 1, f

    def test_columns_built_once_per_union_closed_family(self, monkeypatch):
        built = []
        real = family._bit_columns

        def counting(members, universe_size):
            built.append(members)
            return real(members, universe_size)

        monkeypatch.setattr(family, "_bit_columns", counting)
        tri = make_family([{0}, {1}, {0, 1}])
        unseparated = make_family([{0, 1}])
        empty = family_from_masks([])
        corpus = [tri, family_from_masks([1], universe_size=2), unseparated,
                  make_family([{0}, {1}]), empty, make_family([{2}, {1, 2}, {0, 1, 2}])]
        rep = corpus_verify(corpus)
        assert rep.ok is False and len(rep.rejections) == 2
        assert rep.union_closed_count == 4
        assert built == [tri.members, unseparated.members, empty.members,
                         corpus[-1].members]

    def test_broken_chain_is_still_caught(self, monkeypatch):
        real = witnesses.falgas_ravry_chain

        def duplicated(f):
            w = real(f)
            return replace(w, chain=(w.chain[0],) * len(w.chain))

        tri = make_family([{0}, {1}, {0, 1}])
        monkeypatch.setattr(bounds, "falgas_ravry_chain", duplicated)
        with pytest.raises(ContradictionError):
            bounds.lemma_bound(tri)
        monkeypatch.setattr(search, "falgas_ravry_chain", duplicated)
        rep = corpus_verify([tri])
        assert ("{{0},{1},{0,1}}", "chain: chain entries are not pairwise distinct") \
            in rep.invariant_failures
