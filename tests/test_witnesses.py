from dataclasses import replace

import pytest

from ucsets import (
    ContradictionError,
    PreconditionError,
    a_sets,
    counting_audit,
    elements_of,
    falgas_ravry_chain,
    m_sets,
    make_family,
    mask_of,
    max_index_elements,
    minimal_transversal,
    union_closure,
    verify_chain_witness,
    verify_transversal,
)
from ucsets.formats import transversal_to_json

CHAIN = make_family([{2}, {1, 2}, {0, 1, 2}])
TRI = make_family([{0}, {1}, {0, 1}])
SINGLE = make_family([{0}])


def masks(sets):
    return [mask_of(s) for s in sets]


class TestChain:
    def test_chain_family(self):
        w = falgas_ravry_chain(CHAIN)
        assert list(w.chain) == masks([{0, 1, 2}, {1, 2}, {2}])
        assert w.order == (0, 1, 2)
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
            xi, xj = w.order[i - 1], w.order[j - 1]
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
        assert tr.k == 2
        assert tr.singleton_witnesses == {0: 0b01, 1: 0b10}
        assert tr.pb_family == {0b01: 0b01, 0b10: 0b10, 0b11: 0b11}
        assert tr.full_sets_not_in_p == 0

    def test_chain_family(self):
        tr = minimal_transversal(CHAIN)
        assert max_index_elements(CHAIN) == 0b100
        assert tr.u_hat == 0b100
        assert tr.k == 1
        assert tr.singleton_witnesses == {2: 0b100}

    def test_single_member(self):
        tr = minimal_transversal(SINGLE)
        assert tr.u_hat == 0b1
        assert tr.k == 1

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
            assert tr.k == 0
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
        bloated = replace(tr, u_hat=0b111, k=3)
        issues = verify_transversal(f, bloated)
        assert any("not inclusion-minimal" in s for s in issues)

    def test_verify_flags_wrong_trace(self):
        tr = minimal_transversal(TRI)
        bad = replace(tr, pb_family={**tr.pb_family, 0b01: 0b11})
        issues = verify_transversal(TRI, bad)
        assert any("trace" in s for s in issues)

    def test_determinism(self):
        assert minimal_transversal(TRI) == minimal_transversal(TRI)


class TestVerifiersReadFamilyData:
    """The verifiers check the family's own cached data: a wrong m_sets or
    tops planted on a family must be reported against an honest witness."""

    @staticmethod
    def planted(**cached):
        f = make_family([{0}, {1}, {0, 1}])  # TRI: m_sets (0b11, 0b10, 0b01)
        f.__dict__.update(cached)
        return f

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

    def test_empty_set_member_counted(self):
        f = make_family([set(), {0}])
        a = counting_audit(f, minimal_transversal(f))
        assert a.p_family_size == 2  # singleton pattern plus the empty set
        assert a.n == 2

    def test_degenerate_families(self):
        a = counting_audit(make_family([]), minimal_transversal(make_family([])))
        assert (a.n, a.k, a.rhs) == (0, 0, 1)
        assert a.inequality_holds
        a = counting_audit(make_family([set()]), minimal_transversal(make_family([set()])))
        assert (a.n, a.k, a.rhs) == (1, 0, 1)
        assert a.inequality_holds
