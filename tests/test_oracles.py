"""Independent oracles for the sweeps: pinned audit statistics and two
proven cases of the union-closed conjecture.

The two theorems are checked by counting memberships over f.members
directly, never through SetFamily.freq or SetFamily.columns, so every hit
also cross-checks the bit-sliced frequencies.  A miss is a bug in the code.
"""

from collections import Counter

from ucsets import counting_audit, enumerate_union_closed, frankl_witnesses, minimal_transversal


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
