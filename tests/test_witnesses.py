from dataclasses import replace

import pytest

from ucsets import (
    ChainWitness,
    ContradictionError,
    PreconditionError,
    SetFamily,
    counting_audit,
    elements_of,
    falgas_ravry_chain,
    make_family,
    mask_of,
    minimal_transversal,
    union_closure,
    verify_chain_witness,
    verify_transversal,
)
from ucsets.formats import transversal_to_json
from ucsets.witnesses import a_sets, m_sets, max_index_elements
from test_kernels import (
    naive_counting_audit,
    naive_verify_chain_witness,
    naive_verify_transversal,
)

CHAIN = make_family([{2}, {1, 2}, {0, 1, 2}])
TRI = make_family([{0}, {1}, {0, 1}])
SINGLE = make_family([{0}])
E4 = make_family([set(), {0}, {1}, {0, 1}])


def masks(sets):
    return [mask_of(s) for s in sets]


class TestChain:
    def test_chain_family(self):
        w = falgas_ravry_chain(CHAIN)
        assert list(w.chain) == masks([{0, 1, 2}, {1, 2}, {2}])
        assert CHAIN.order == (0, 1, 2)
        assert 0 not in CHAIN.members

    def test_tri_family(self):
        w = falgas_ravry_chain(TRI)
        assert list(w.chain) == masks([{0, 1}, {1}])
        assert w.pair_witnesses == {(1, 2): 0b10}

    def test_single_member(self):
        w = falgas_ravry_chain(SINGLE)
        assert list(w.chain) == [0b1]
        assert w.pair_witnesses == {}

    def test_empty_family_rejected(self):
        with pytest.raises(PreconditionError):
            falgas_ravry_chain(make_family([]))

    def test_unseparated_pair_named(self):
        f = make_family([{0, 1}, {0, 1, 2}])
        with pytest.raises(PreconditionError, match="0 and 1|1 and 0"):
            falgas_ravry_chain(f)

    def test_pair_witness_is_smallest_mask(self):
        # both {1} and {1,3} contain rank-2's element but avoid rank-1's;
        # the smaller mask must be recorded
        f = union_closure(make_family([{1}, {1, 3}, {0, 1, 3}, {2, 1, 3, 0}]))
        w = falgas_ravry_chain(f)
        for (i, j), a in w.pair_witnesses.items():
            xi, xj = f.order[i - 1], f.order[j - 1]
            candidates = [b for b in f.members
                          if not b >> xi & 1 and b >> xj & 1]
            assert a == min(candidates)

    def test_verify_accepts_genuine_witness(self):
        for f in (CHAIN, TRI, SINGLE):
            assert verify_chain_witness(f, falgas_ravry_chain(f)) == []

    def test_verify_flags_tampered_chain(self):
        w = falgas_ravry_chain(CHAIN)
        bad = replace(w, chain=(w.chain[0], w.chain[0], w.chain[2]))
        issues = verify_chain_witness(CHAIN, bad)
        assert issues
        assert any("avoided element" in s or "distinct" in s for s in issues)

    def test_verify_flags_wrong_length(self):
        w = falgas_ravry_chain(CHAIN)
        bad = replace(w, chain=w.chain[:2])
        assert verify_chain_witness(CHAIN, bad)

    def test_determinism(self):
        assert falgas_ravry_chain(CHAIN) == falgas_ravry_chain(CHAIN)

    # CHAIN's honest witness: chain (0b111, 0b110, 0b100), pair witnesses
    # {(1, 2): 0b110, (1, 3): 0b100, (2, 3): 0b100}.
    @pytest.mark.parametrize("edit, issues", [
        (dict(chain=(0b011, 0b110, 0b100)),
         ["chain[0] is not the universe", "chain[0] is not a member",
          "chain[0] misses a higher-ranked element"]),
        (dict(chain=(0b111, 0b110, 0b101)),
         ["chain[2] is not a member", "chain[2] is not contained in m_sets[2]"]),
        (dict(chain=(0b111, 0b100, 0b100)),
         ["chain[1] misses a higher-ranked element",
          "chain entries are not pairwise distinct"]),
        (dict(pair_witnesses={(1, 2): 0b110, (2, 3): 0b100}),
         ["pair witness keys are not exactly the rank pairs i<j"]),
        (dict(pair_witnesses={(1, 2): 0b010, (1, 3): 0b100, (2, 3): 0b100}),
         ["pair witness (1,2) is not a member"]),
        (dict(pair_witnesses={(1, 2): 0b110, (1, 3): 0b100, (2, 3): 0b110}),
         ["pair witness (2,3) fails the containment pattern"]),
        (dict(pair_witnesses={(2, 3): 0b100, (1, 3): 0b100, (1, 2): 0b110}), []),
    ], ids=["chain0-not-universe", "not-a-member", "misses-higher-rank", "pair-keys",
            "pair-not-a-member", "pair-pattern", "pair-keys-reordered"])
    def test_verify_names_each_planted_fault(self, edit, issues):
        w = replace(falgas_ravry_chain(CHAIN), **edit)
        assert verify_chain_witness(CHAIN, w) == issues

    def test_verify_names_chain1_holding_its_avoided_element(self):
        # TRI's honest chain is (0b11, 0b10); its member {0} as chain[1]
        # holds the rank-1 element 0 and misses the rank-2 element 1.
        w = replace(falgas_ravry_chain(TRI), chain=(0b11, 0b01))
        assert verify_chain_witness(TRI, w) == [
            "chain[1] contains its avoided element 0",
            "chain[1] misses a higher-ranked element",
            "chain[1] is not contained in m_sets[1]"]

    def test_verify_names_a_chain_head_past_the_universe(self):
        w = replace(falgas_ravry_chain(CHAIN), chain=(0b1111, 0b110, 0b100))
        assert verify_chain_witness(CHAIN, w) == [
            "chain[0] is not the universe", "chain[0] is not a member",
            "chain[0] is not contained in m_sets[0]"]


class TestMSets:
    def test_chain_family(self):
        assert list(m_sets(CHAIN)) == masks([{0, 1, 2}, {1, 2}, {2}, set()])

    def test_tri_family(self):
        ms = m_sets(TRI)
        assert ms[0] == 0b11
        assert ms[1] == 0b10  # members omitting element 0: just {1}
        assert ms[2] == 0b01

    def test_all_members_share_top_element(self):
        # every member contains the top element, so the last entry is empty
        f = make_family([{0, 2}, {1, 2}, {0, 1, 2}])
        assert m_sets(f)[-1] == 0


class TestTransversal:
    def test_tri_family(self):
        tr = minimal_transversal(TRI)
        assert tr.u_hat == 0b11
        assert tr.pb_family == {0b01: 0b01, 0b10: 0b10, 0b11: 0b11}

    def test_chain_family(self):
        tr = minimal_transversal(CHAIN)
        assert max_index_elements(CHAIN) == 0b100
        assert tr.u_hat == 0b100
        assert tr.pb_family[0b100] == 0b100

    def test_single_member(self):
        tr = minimal_transversal(SINGLE)
        assert tr.u_hat == 0b1

    def test_max_index_elements(self):
        assert max_index_elements(CHAIN) == 0b100
        assert max_index_elements(TRI) == 0b11
        assert max_index_elements(SINGLE) == 0b1

    def test_a_sets_examples(self):
        assert a_sets(TRI) == {0: 0b01, 1: 0b11}
        assert a_sets(CHAIN) == {2: 0b111}
        assert a_sets(SINGLE) == {0: 0b1}

    def test_empty_set_member_flag(self):
        f = make_family([set(), {0}])
        tr = minimal_transversal(f)
        assert transversal_to_json(f, tr)["empty_set_member"] is True
        assert tr.u_hat == 0b1
        assert verify_transversal(f, tr) == []

    def test_degenerate_families(self):
        for f in (make_family([]), make_family([set()])):
            tr = minimal_transversal(f)
            assert tr.u_hat.bit_count() == 0
            assert tr.pb_family == {}
            assert verify_transversal(f, tr) == []

    def test_verify_accepts_genuine_report(self):
        for f in (CHAIN, TRI, SINGLE):
            assert verify_transversal(f, minimal_transversal(f)) == []

    def test_verify_flags_bloated_transversal(self):
        # a family whose top-element set strictly contains the minimal
        # transversal; reporting the whole top-element set must be flagged
        f = make_family([{0}, {1}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2},
                         {0, 2, 3}, {0, 1, 2, 3}])
        tr = minimal_transversal(f)
        assert tr.u_hat == 0b011
        assert max_index_elements(f) == 0b111
        bloated = replace(tr, u_hat=0b111)
        issues = verify_transversal(f, bloated)
        assert any("not inclusion-minimal" in s for s in issues)

    # TRI's honest report: u_hat 0b11, pb_family {0b01: 0b01, 0b10: 0b10,
    # 0b11: 0b11}.
    @pytest.mark.parametrize("edit, issues", [
        (dict(u_hat=0b01, pb_family={0b01: 0b01}),
         ["member 0x2 avoids the transversal"]),
        (dict(u_hat=0b10, pb_family={0b10: 0b10}),
         ["member 0x1 avoids the transversal"]),
        (dict(u_hat=0, pb_family={}),
         ["empty transversal with non-empty members present"]),
        (dict(pb_family={0b01: 0b01, 0b10: 0b10, 0b111: 0b11}),
         ["pattern 0x7 is not a non-empty transversal subset",
          "pattern member for 0x7 has trace != pattern"]),
        (dict(pb_family={0b01: 0b01, 0b10: 0b10, 0b11: 0b111}),
         ["pattern member for 0x3 is not a member"]),
    ], ids=["member-avoids", "first-member-avoids", "empty", "pattern-outside",
            "pattern-not-a-member"])
    def test_verify_names_each_planted_fault(self, edit, issues):
        tr = replace(minimal_transversal(TRI), **edit)
        assert verify_transversal(TRI, tr) == issues

    def test_verify_counts_each_elements_patterns(self):
        # Three patterns, none empty, but 0x4 lies outside u_hat: each
        # element of u_hat lies in one of them instead of two.
        tr = replace(minimal_transversal(TRI),
                     pb_family={0b01: 0b01, 0b10: 0b10, 0b100: 0b11})
        assert verify_transversal(TRI, tr) == [
            "pattern 0x4 is not a non-empty transversal subset",
            "pattern member for 0x4 has trace != pattern",
            "element 0 lies in 1 patterns, expected 2",
            "element 1 lies in 1 patterns, expected 2"]

    def test_verify_names_a_repeated_pattern_member(self):
        tr = replace(minimal_transversal(TRI), pb_family={0b01: 0b01, 0b10: 0b10, 0b11: 0b10})
        assert verify_transversal(TRI, tr) == [
            "pattern family members are not pairwise distinct",
            "pattern member for 0x3 has trace != pattern"]

    def test_verify_names_an_empty_pattern(self):
        # The empty member keyed by the empty pattern: its trace matches,
        # but the pattern is not a non-empty subset of u_hat.
        f = make_family([set(), {0}, {1}, {0, 1}])
        tr = replace(minimal_transversal(f), pb_family={0b01: 0b01, 0b10: 0b10, 0: 0})
        assert verify_transversal(f, tr) == [
            "pattern 0x0 is not a non-empty transversal subset",
            "element 0 lies in 1 patterns, expected 2",
            "element 1 lies in 1 patterns, expected 2"]

    def test_verify_names_an_empty_pattern_in_place_of_a_singleton(self):
        # The patterns 0x2, 0x3 and the empty one: three, each traced, but
        # the singleton {0} is missing.
        tr = replace(minimal_transversal(E4), pb_family={0b10: 0b10, 0b11: 0b11, 0: 0})
        assert verify_transversal(E4, tr) == [
            "pattern 0x0 is not a non-empty transversal subset",
            "element 0 lies in 1 patterns, expected 2"]

    def test_verify_flags_wrong_trace(self):
        tr = minimal_transversal(TRI)
        bad = replace(tr, pb_family={**tr.pb_family, 0b01: 0b11})
        issues = verify_transversal(TRI, bad)
        assert any("trace" in s for s in issues)

    def test_determinism(self):
        assert minimal_transversal(TRI) == minimal_transversal(TRI)


class TestVerifiersReadFamilyData:
    """The verifiers check the family's own cached data: a wrong m_sets,
    tops or freq planted on a family must be reported against an honest
    witness."""

    @staticmethod
    def planted(**cached):
        f = make_family([{0}, {1}, {0, 1}])  # TRI: m_sets (0b11, 0b10, 0b01)
        f.__dict__.update(cached)
        return f

    @pytest.mark.parametrize("m_sets_, issues", [
        ((0b11, 0b10), ["m_sets has 2 entries, expected 3"]),
        ((0b01, 0b10, 0b01),
         ["m_sets[0] is not the universe", "chain[0] is not contained in m_sets[0]"]),
        ((0b11, 0b00, 0b01),
         ["m_sets[1] misses a higher-ranked element",
          "chain[1] is not contained in m_sets[1]"]),
        ((0b11,), ["m_sets has 1 entries, expected 3"]),
        ((0b111, 0b10, 0b01), ["m_sets[0] is not the universe"]),
    ], ids=["length", "m0-not-universe", "misses-higher-rank", "short", "m0-past-universe"])
    def test_m_sets_faults(self, m_sets_, issues):
        f = self.planted(m_sets=m_sets_)
        assert verify_chain_witness(f, falgas_ravry_chain(TRI)) == issues

    def test_top_element_below_the_universe_size(self):
        f = self.planted(freq=(1, 1))  # the tie keeps the order (0, 1)
        assert verify_chain_witness(f, falgas_ravry_chain(TRI)) == [
            "top element 1 has frequency below the universe size 2"]

    def test_chain_head_inside_every_m_set_but_the_first(self):
        # Element 2 lies past TRI's universe, in m_sets[1] and m_sets[2]
        # but not in m_sets[0].
        f = self.planted(m_sets=(0b11, 0b110, 0b101))
        w = replace(falgas_ravry_chain(TRI), chain=(0b100, 0b10))
        assert verify_chain_witness(f, w) == [
            "chain[0] is not the universe", "chain[0] is not a member",
            "chain[0] misses a higher-ranked element",
            "chain[0] is not contained in m_sets[0]"]

    def test_member_avoiding_every_top_element(self):
        # every member topped by element 0: the member {1} avoids {0}
        with pytest.raises(ContradictionError,
                           match=r"^member 0x2 avoids every top-ranked element$"):
            minimal_transversal(self.planted(tops=(0b111, 0)))

    def test_a_set_missing_its_element(self):
        # element 0 said to top the member {1}
        f = self.planted(tops=(0b010, 0b101))
        assert verify_transversal(f, minimal_transversal(TRI)) == [
            "a_sets[0] does not contain 0", "a_sets[0] escapes m_sets[2]"]

    @pytest.mark.parametrize("sets, tops, issues", [
        # element 0 said to top only the empty member
        ([set(), {0}, {1}, {0, 1}], (0b0001, 0b1100), ["a_sets[0] does not contain 0"]),
        # the top-ranked element 1 said to top only {0}, element 0 nothing
        ([{0}, {1}, {0, 1}], (0, 0b001),
         ["transversal is not a subset of the top-element set",
          "a_sets[1] does not contain 1"]),
        # the top-ranked element 0 said to top only {1}, which holds id 1
        ([{0}, {1}, {0, 1}, {0, 2}, {0, 1, 2}], (0b10, 0, 0),
         ["transversal is not a subset of the top-element set",
          "a_sets[0] does not contain 0"]),
    ], ids=["empty-member", "only-top-element", "next-id"])
    def test_a_set_missing_its_element_inside_the_m_sets(self, sets, tops, issues):
        f = make_family(sets)
        tr = minimal_transversal(f)
        f.__dict__["tops"] = tops
        assert verify_transversal(f, tr) == issues

    def test_a_set_missing_its_top_ranked_element(self):
        # the top-ranked element 1 said to top only the member {0}; no m_set
        # lies above rank 2, so nothing escapes
        f = self.planted(tops=(0b001, 0b001))
        assert verify_transversal(f, minimal_transversal(TRI)) == [
            "a_sets[1] does not contain 1"]

    def test_m_sets_entry_holding_its_avoided_element(self):
        f = self.planted(m_sets=(0b11, 0b11, 0b01))
        assert verify_chain_witness(f, falgas_ravry_chain(TRI)) == [
            "m_sets[1] contains its avoided element"]

    def test_a_sets_escaping_a_higher_m_set(self):
        f = self.planted(m_sets=(0b11, 0b10, 0))
        assert verify_transversal(f, minimal_transversal(TRI)) == [
            "a_sets[0] escapes m_sets[2]"]

    def test_top_element_missing_from_an_m_set(self):
        f = self.planted(m_sets=(0b11, 0, 0b01))
        assert verify_transversal(f, minimal_transversal(TRI)) == [
            "top element 1 missing from m_sets[1]"]

    @pytest.mark.parametrize("sets, m_sets_, issues", [
        # TRI's m_sets[1] holds element 0, which it avoids, in place of 1
        ([{0}, {1}, {0, 1}], (0b11, 0b01, 0b11), ["top element 1 missing from m_sets[1]"]),
        # TRI's m_sets[2] holds every top element, its m_sets[0] does not
        ([{0}, {1}, {0, 1}], (0b01, 0b10, 0b11), ["top element 1 missing from m_sets[0]"]),
        # CHAIN's m_sets[1] is empty, and no m_set above it holds an
        # element ranked at or below its own rank
        ([{2}, {1, 2}, {0, 1, 2}], (0b111, 0, 0b100, 0),
         ["top element 2 missing from m_sets[1]"]),
    ], ids=["m1-holds-its-avoided-element", "m0-misses-top", "only-m1-short"])
    def test_top_element_missing_where_the_other_m_sets_fit(self, sets, m_sets_, issues):
        f = make_family(sets)
        tr = minimal_transversal(f)
        f.__dict__["m_sets"] = m_sets_
        assert verify_transversal(f, tr) == issues

    def test_transversal_outside_the_top_element_set(self):
        # every member topped by element 1: the top-element set is {1}
        f = self.planted(tops=(0, 0b111))
        assert verify_transversal(f, minimal_transversal(TRI)) == [
            "transversal is not a subset of the top-element set"]


class TestCountingAudit:
    def test_tri_family(self):
        a = counting_audit(TRI, minimal_transversal(TRI))
        assert (a.m, a.n, a.k, a.c) == (2, 3, 2, 0)
        assert a.rhs == 4
        assert a.incidence_total == 4
        assert a.incidence_upper == 4
        assert a.p_incidences == 4
        assert a.p_family_size == 3
        assert a.full_extra == 0
        assert a.inequality_holds
        assert all(a.bullets_ok.values())

    def test_chain_family(self):
        a = counting_audit(CHAIN, minimal_transversal(CHAIN))
        assert (a.k, a.c, a.rhs, a.n) == (1, 0, 4, 3)
        assert a.inequality_holds

    def test_single_member(self):
        a = counting_audit(SINGLE, minimal_transversal(SINGLE))
        assert (a.m, a.n, a.k, a.c, a.rhs) == (1, 1, 1, 0, 2)
        assert a.inequality_holds

    def test_accounting_identity(self):
        for f in (CHAIN, TRI, SINGLE, make_family([set(), {0}]),
                  union_closure(make_family([{0}, {1}, {2}]))):
            a = counting_audit(f, minimal_transversal(f))
            assert a.n == a.p_family_size + a.full_extra + a.other_nonempty
            assert a.incidence_total <= a.incidence_upper

    def test_pattern_members_are_not_counted_as_others(self):
        # With u_hat cut to {0}, the pattern member {1} misses it, but as a
        # pattern member it is neither another member nor a failed touch.
        tr = replace(minimal_transversal(TRI), u_hat=0b01)
        a = counting_audit(TRI, tr)
        assert (a.k, a.other_nonempty) == (1, 0)
        assert a.bullets_ok["remaining_touch"]

    def test_empty_set_member_counted(self):
        f = make_family([set(), {0}])
        a = counting_audit(f, minimal_transversal(f))
        assert a.p_family_size == 2  # singleton pattern plus the empty set
        assert a.n == 2

    def test_transversal_past_the_universe(self):
        # u_hat names id 1, which lies in no member of {{0}}: frequency 0,
        # an empty column, so no member holds all of u_hat.
        a = counting_audit(SINGLE, replace(minimal_transversal(SINGLE), u_hat=0b10))
        assert (a.k, a.incidence_total, a.full_extra, a.other_nonempty) == (1, 0, 0, 0)

    def test_degenerate_families(self):
        a = counting_audit(make_family([]), minimal_transversal(make_family([])))
        assert (a.n, a.k, a.rhs) == (0, 0, 1)
        assert a.inequality_holds
        a = counting_audit(make_family([set()]), minimal_transversal(make_family([set()])))
        assert (a.n, a.k, a.rhs) == (1, 0, 1)
        assert a.inequality_holds


# Inputs on which a shortcut of the verifiers or the audit could part from
# the member loops of test_kernels: empty and unvalidated families, cached
# data planted on a family, and witnesses edited past the universe.
# Entry: (family, planted cached values, chain edit, transversal edit).
EDGE_INPUTS = {
    "empty": (make_family([]), {}, {}, {}),
    "empty-one-id": (SetFamily(1, ()), {}, {}, {}),
    "empty-one-id-m0-past": (SetFamily(1, ()), {"m_sets": (1, 0)}, {}, {}),
    "single": (SINGLE, {}, {}, {}),
    "single-one-more-id": (SetFamily(2, SINGLE.members), {}, {}, {}),
    "single-freq-0": (SINGLE, {"freq": (0,)}, {}, {}),
    "single-m1-holds-0": (SINGLE, {"m_sets": (1, 1)}, {}, {}),
    "single-u_hat-0": (SINGLE, {}, {}, {"u_hat": 0}),
    "single-u_hat-1": (SINGLE, {}, {}, {"u_hat": 0b10}),
    "single-u_hat-01": (SINGLE, {}, {}, {"u_hat": 0b11}),
    "single-m_sets-short": (SINGLE, {"m_sets": (1,)}, {}, {}),
    "tri": (TRI, {}, {}, {}),
    "tri-freq-3-2": (TRI, {"freq": (3, 2)}, {}, {}),
    "tri-m_sets-long": (TRI, {"m_sets": (0b11, 0b10, 0b01, 0)}, {}, {}),
    "tri-chain0-a-member": (TRI, {}, {"chain": (0b01, 0b10)}, {}),
    "tri-pair-witness-empty": (TRI, {}, {"pair_witnesses": {(1, 2): 0}}, {}),
    "tri-u_hat-1": (TRI, {}, {}, {"u_hat": 0b10}),
    "tri-pattern-0x1-missing": (TRI, {}, {}, {"pb_family": {0b10: 0b01, 0b11: 0b11}}),
    "e4-pair-witness-empty": (E4, {}, {"pair_witnesses": {(1, 2): 0}}, {}),
    "e4-u_hat-012": (E4, {}, {}, {"u_hat": 0b111}),
    "e4-pattern-member-empty": (E4, {}, {}, {"pb_family": {0b01: 0, 0b10: 0b10, 0b11: 0b11}}),
}


@pytest.mark.parametrize("case", EDGE_INPUTS)
def test_verifiers_and_audit_match_member_loops_on_edge_inputs(case):
    g, cached, chain_edit, tr_edit = EDGE_INPUTS[case]
    w = falgas_ravry_chain(g) if g.n else ChainWitness(chain=(), pair_witnesses={})
    w, tr = replace(w, **chain_edit), replace(minimal_transversal(g), **tr_edit)
    f = SetFamily(g.universe_size, g.members)
    f.__dict__.update(cached)
    assert verify_chain_witness(f, w) == naive_verify_chain_witness(f, w)
    assert verify_transversal(f, tr) == naive_verify_transversal(f, tr)
    assert counting_audit(f, tr) == naive_counting_audit(f, tr)
