"""Independent oracles for the sweeps: pinned audit statistics, the audit's
slack split term by term, the audit of every admissible transversal, and
two proven cases of the union-closed conjecture.

The two theorems are checked by counting memberships over f.members
directly, never through SetFamily.freq or SetFamily.columns, so every hit
also cross-checks the bit-sliced frequencies.  A miss is a bug in the code.
"""

from collections import Counter
from itertools import combinations

from ucsets import counting_audit, enumerate_union_closed, frankl_witnesses, minimal_transversal
from ucsets.witnesses import TransversalReport, max_index_elements, verify_transversal


def _audit_statistics(families):
    """The k histogram and the smallest slack rhs - n of the counting audit."""
    ks, slacks = Counter(), []
    for f in families:
        audit = counting_audit(f, minimal_transversal(f))
        ks[audit.k] += 1
        slacks.append(audit.rhs - audit.n)
    return dict(ks), min(slacks)


def test_audit_statistics_exhaustive_m4(separating_corpora):
    assert len(separating_corpora[4]) == 4404
    ks, slack = _audit_statistics(separating_corpora[4])
    assert ks == {0: 2, 1: 592, 2: 3294, 3: 514, 4: 2}
    assert slack == 0  # the audit inequality is tight on some m = 4 family


def test_audit_statistics_random_m16(random_corpus):
    # The first 300 families: seeds 42..341 of random_family(16, 10, .).
    ks, slack = _audit_statistics(random_corpus[:300])
    assert ks == {1: 6, 2: 235, 3: 59}
    assert slack == 1


def _slack_terms(f, u_hat):
    """The four terms of the counting audit's slack rhs - n, one per
    inequality of the counting step, counted over f.members.

    s_cap: k(m + c) less the frequencies of the transversal's elements.
    s_full: (k - 1) times the members containing all of u_hat, outside the
    pattern family, beyond the m - k the audit needs.  s_touch: |a & u_hat|
    - 1 over the other non-empty members a outside the pattern family.
    s_empty: 1 when the empty set is not a member.  The pattern family holds
    the unions of the singleton witnesses, the smallest member whose trace
    on u_hat is {x}.
    """
    m, k = f.universe_size, u_hat.bit_count()
    freq = [_count(f, x) for x in range(m)]
    c = max(freq) - m
    xs = [x for x in range(m) if u_hat >> x & 1]
    witness = [min(a for a in f.members if a & u_hat == 1 << x) for x in xs]
    patterns = {_union(combo) for size in range(1, k + 1)
                for combo in combinations(witness, size)}
    rest = [a for a in f.members if a and a not in patterns]
    s_cap = k * (m + c) - sum(freq[x] for x in xs)
    s_full = (k - 1) * (sum(1 for a in rest if a & u_hat == u_hat) - (m - k))
    s_touch = sum((a & u_hat).bit_count() - 1 for a in rest if a & u_hat != u_hat)
    s_empty = int(0 not in f.members)
    return s_cap, s_full, s_touch, s_empty


def _union(masks):
    out = 0
    for a in masks:
        out |= a
    return out


def _slacks(families):
    """The audit's slack rhs - n and the k of each family, after checking
    that the slack is the sum of its four terms."""
    out = []
    for f in families:
        tr = minimal_transversal(f)
        audit = counting_audit(f, tr)
        terms = _slack_terms(f, tr.u_hat)
        assert audit.rhs - f.n == sum(terms), (f, terms)
        out.append((audit.rhs - f.n, tr.u_hat.bit_count()))
    return out


def test_audit_slack_terms_exhaustive_m1_to_m4(separating_corpora):
    families = [f for m in range(1, 5) for f in separating_corpora[m]
                if f.n >= 1 and f.universe_size >= 1]
    slacks = _slacks(families)
    assert len(slacks) == 4508
    tight = Counter(k for slack, k in slacks if slack == 0)
    assert sum(tight.values()) == 718
    assert dict(tight) == {1: 322, 2: 374, 3: 21, 4: 1}
    assert min(slack for slack, _ in slacks) == 0


def test_audit_slack_terms_random_m16(random_corpus):
    slacks = _slacks(random_corpus[:300])
    assert min(slack for slack, _ in slacks) == 1


def _admissible_transversals(f):
    """Every inclusion-minimal transversal inside the top-element set, each
    with the pattern family minimal_transversal would build for it.

    A transversal meets every non-empty member, and no proper subset of an
    inclusion-minimal one does; dropping any one element decides that.  The
    singleton witness of x is the smallest member whose trace on u_hat is
    {x}, and P_b is the union of the witnesses of b's elements.
    """
    tops = [x for x in range(f.universe_size) if max_index_elements(f) >> x & 1]
    # hits[s]: the indices of the members meeting the tops chosen by s.
    hits = [0] * (1 << len(tops))
    for s in range(1, len(hits)):
        low = (s & -s).bit_length() - 1
        hits[s] = hits[s & (s - 1)] | sum(1 << i for i, a in enumerate(f.members)
                                          if a >> tops[low] & 1)
    nonempty = sum(1 << i for i, a in enumerate(f.members) if a)
    out = []
    for s, hit in enumerate(hits):
        if hit != nonempty or any(hits[s ^ (1 << i)] == nonempty
                                  for i in range(len(tops)) if s >> i & 1):
            continue
        u_hat = sum(1 << tops[i] for i in range(len(tops)) if s >> i & 1)
        witness = {x: min(a for a in f.members if a & u_hat == 1 << x)
                   for x in range(f.universe_size) if u_hat >> x & 1}
        patterns = {b: _union(w for x, w in witness.items() if b >> x & 1)
                    for b in range(1, u_hat + 1) if not b & ~u_hat}
        out.append(TransversalReport(u_hat=u_hat, pb_family=patterns))
    return out


def _audit_every_transversal(families):
    """Audit every admissible transversal of each family, and require every
    check to hold.  Returns the number of audits, the number of families
    whose transversals differ in k, and the number where the greedy
    transversal's slack rhs - n is not the least."""
    audits = k_varies = greedy_looser = 0
    for f in families:
        greedy = minimal_transversal(f).u_hat
        slack = {}
        for tr in _admissible_transversals(f):
            assert verify_transversal(f, tr) == [], (f, tr)
            audit = counting_audit(f, tr)
            assert all(audit.bullets_ok.values()) and audit.inequality_holds, (f, tr)
            slack[tr.u_hat] = audit.rhs - f.n
        assert greedy in slack
        audits += len(slack)
        k_varies += len({u_hat.bit_count() for u_hat in slack}) > 1
        greedy_looser += slack[greedy] > min(slack.values())
    return audits, k_varies, greedy_looser


def test_every_admissible_transversal_passes_the_audit_exhaustive_m4(separating_corpora):
    families = [f for m in range(5) for f in separating_corpora[m] if f.covered_mask]
    assert len(families) == 4508
    assert _audit_every_transversal(families) == (4542, 0, 0)


def test_every_admissible_transversal_passes_the_audit_random_m16(random_corpus):
    # Seeds 42..341 of random_family(16, 10, .).
    assert _audit_every_transversal(random_corpus[:300]) == (340, 6, 1)


def _count(f, x):
    return sum(1 for a in f.members if a >> x & 1)


def _check_theorems(f):
    """Check both theorems on f.

    Sarvate-Renaud: a member with 1 or 2 elements contains an element of at
    least half the members.  Balla-Bollobas-Eccles: n >= (2/3) 2^m with
    m >= 1 puts some element in at least half the members.  Returns the
    number of small members checked and 1 when the second theorem applied.
    """
    n, m = f.n, f.universe_size
    small = 0
    for a in f.members:
        xs = [x for x in range(m) if a >> x & 1]
        if not 1 <= len(xs) <= 2:
            continue
        small += 1
        frankl = [x for x in xs if 2 * _count(f, x) >= n]
        assert frankl, f"Sarvate-Renaud: member {xs} of {f} has no Frankl element"
        assert frankl == [x for x in frankl_witnesses(f) if a >> x & 1]
    bbe = m >= 1 and 3 * n >= 2 << m
    if bbe:
        assert any(2 * _count(f, x) >= n for x in range(m)), \
            f"Balla-Bollobas-Eccles: {f} has no Frankl element"
    return small, int(bbe)


def test_proven_cases_exhaustive_m4():
    small = bbe = 0
    for m in range(5):
        for f in enumerate_union_closed(m, family_filter="all"):
            s, b = _check_theorems(f)
            small, bbe = small + s, bbe + b
    assert (small, bbe) == (17400, 649)


def test_proven_cases_random_corpus(random_corpus):
    checks = [_check_theorems(f) for f in random_corpus]
    # No family of ~90 members over 16 elements reaches (2/3) 2^16.
    assert tuple(map(sum, zip(*checks))) == (14, 0)
