"""Witness constructions for separating union-closed families.

Everything is phrased against the increasing-frequency labeling: rank r in
1..m denotes the element f.order[r-1] (elements by increasing frequency,
ties broken by lower id), so rank m belongs to a most frequent element.
The constructions read this labeling from the family, so inputs do not
have to be pre-relabeled.  All tie-breaking is deterministic (smallest
mask value, lowest element id) and reports come out bit-identical across
runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContradictionError, PreconditionError
from .family import SetFamily, elements_of


def _meeting(columns: tuple[int, ...], mask: int) -> int:
    """Index mask of the members that meet mask (the OR of its columns)."""
    out = 0
    for x in elements_of(mask):
        out |= columns[x]
    return out


def _first_member(members: tuple[int, ...], indices: int) -> int:
    """The smallest member among the non-empty index mask `indices`."""
    return members[(indices & -indices).bit_length() - 1]


@dataclass(frozen=True)
class ChainWitness:
    """A strictly shrinking run of members certifying the top element.

    chain[0] is the universe; chain[r] for r >= 1 is a member omitting the
    rank-r element while containing every element of higher rank.  All
    entries are pairwise distinct members, so the rank-m element, which lies
    in every entry, has frequency at least m.  pair_witnesses maps 1-based
    rank pairs (i, j), i < j, to a member containing the rank-j element but
    not the rank-i one.  The ranks are relative to order, the family's
    frequency labeling; the family's m_sets bound the entries from above.
    """

    order: tuple[int, ...]
    chain: tuple[int, ...]
    pair_witnesses: dict[tuple[int, int], int]


def m_sets(f: SetFamily) -> tuple[int, ...]:
    """Per rank r in 0..m, the union of the members omitting the rank-r element.

    Index 0 is the whole universe.  Entries may be empty and need not be
    members themselves, although in a separating union-closed family every
    entry up to rank m-1 is a non-empty member.
    """
    return f.m_sets


def falgas_ravry_chain(f: SetFamily) -> ChainWitness:
    """Build the shrinking member chain along the frequency labeling.

    pre: f union-closed, separating, validated, with at least one member.
    For each rank pair i < j some member contains the rank-j element but not
    the rank-i one; otherwise the two columns would coincide (the rank-i
    element has at most the rank-j frequency) and the family would not be
    separating, which is reported as the unseparated pair.  chain[i] is the
    union of that rank's pair witnesses, hence itself a member.
    """
    if f.n < 1:
        raise PreconditionError("family has no members")
    order, columns = f.order, f.columns
    m = f.universe_size
    members = f.members
    pair_witnesses: dict[tuple[int, int], int] = {}
    chain = [f.covered_mask] if m else []
    # Rank m has no pairs (i, j) with j > i, so no entry of its own.
    for i in range(1, m):
        xi = order[i - 1]
        avoiding = ~columns[xi]
        entry = 0
        for j in range(i + 1, m + 1):
            xj = order[j - 1]
            hits = columns[xj] & avoiding
            if not hits:
                raise PreconditionError(
                    f"elements {xi} and {xj} are not separated: every member "
                    f"containing {xj} also contains {xi}")
            witness = pair_witnesses[(i, j)] = _first_member(members, hits)
            entry |= witness
        chain.append(entry)
    return ChainWitness(order=order, chain=tuple(chain), pair_witnesses=pair_witnesses)


def verify_chain_witness(f: SetFamily, w: ChainWitness) -> list[str]:
    """Re-check every chain invariant; returns human-readable violations."""
    issues: list[str] = []
    m = f.universe_size
    members = set(f.members)
    order = w.order
    if order != f.order:
        issues.append("order does not match the frequency labeling")
        return issues
    suffix = [0] * (m + 1)
    for r in range(m - 1, -1, -1):
        suffix[r] = suffix[r + 1] | (1 << order[r])

    expected_len = m if f.n >= 1 else 0
    if len(w.chain) != expected_len:
        issues.append(f"chain has {len(w.chain)} entries, expected {expected_len}")
        return issues
    if m >= 1 and f.n >= 1:
        if w.chain[0] != f.covered_mask:
            issues.append("chain[0] is not the universe")
        for i, entry in enumerate(w.chain):
            if entry not in members:
                issues.append(f"chain[{i}] is not a member")
            if i >= 1 and entry >> order[i - 1] & 1:
                issues.append(f"chain[{i}] contains its avoided element {order[i - 1]}")
            if suffix[i] & ~entry:
                issues.append(f"chain[{i}] misses a higher-ranked element")
        if len(set(w.chain)) != len(w.chain):
            issues.append("chain entries are not pairwise distinct")

    expected_keys = {(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)}
    if set(w.pair_witnesses) != expected_keys:
        issues.append("pair witness keys are not exactly the rank pairs i<j")
    for (i, j), a in w.pair_witnesses.items():
        if a not in members:
            issues.append(f"pair witness ({i},{j}) is not a member")
        xi, xj = order[i - 1], order[j - 1]
        if a >> xi & 1 or not a >> xj & 1:
            issues.append(f"pair witness ({i},{j}) fails the containment pattern")

    ms = f.m_sets
    if len(ms) != m + 1:
        issues.append(f"m_sets has {len(ms)} entries, expected {m + 1}")
    else:
        if ms[0] != f.covered_mask:
            issues.append("m_sets[0] is not the universe")
        for r in range(1, m + 1):
            if ms[r] >> order[r - 1] & 1:
                issues.append(f"m_sets[{r}] contains its avoided element")
            if suffix[r] & ~ms[r]:
                issues.append(f"m_sets[{r}] misses a higher-ranked element")
        for i, entry in enumerate(w.chain):
            if entry & ~ms[i]:
                issues.append(f"chain[{i}] is not contained in m_sets[{i}]")

    if m >= 1 and f.n >= 1:
        top = order[-1]
        if f.freq[top] < m:
            issues.append(
                f"top element {top} has frequency below the universe size {m}")
    return issues


@dataclass(frozen=True)
class TransversalReport:
    """A minimal member-hitting subset of the top-ranked elements.

    u_hat is the inclusion-minimal transversal obtained from the family's
    top-element set (max_index_elements) by greedily dropping elements in
    ascending id order, with k = |u_hat|.  Minimality hands each x in u_hat
    a member whose whole trace on u_hat is {x}; unions of those singleton
    witnesses realize every non-empty intersection pattern B, so pb_family
    has exactly 2**k - 1 pairwise distinct members.  The empty pattern is
    realizable only by the empty set.  full_sets_not_in_p counts members
    containing all of u_hat beyond those used in pb_family and the empty set.
    """

    u_hat: int
    k: int
    singleton_witnesses: dict[int, int]
    pb_family: dict[int, int]
    full_sets_not_in_p: int


def max_index_elements(f: SetFamily) -> int:
    """Mask of elements that are the top-ranked element of some member."""
    tilde = 0
    for x, topped in enumerate(f.tops):
        if topped:
            tilde |= 1 << x
    return tilde


def a_sets(f: SetFamily) -> dict[int, int]:
    """For each top-ranked element, the union of the members it tops.

    Keys are element ids (ascending); each key element belongs to its own
    union, and members topped by rank i avoid all ranks above i.
    """
    return {x: sum(1 << y for y, col in enumerate(f.columns) if col & topped)
            for x, topped in enumerate(f.tops) if topped}


def minimal_transversal(f: SetFamily) -> TransversalReport:
    """Shrink the top-element set to an inclusion-minimal member transversal.

    pre: f union-closed, separating, validated.  Greedy removal in ascending
    id order; one pass gives inclusion-minimality because a removal that
    fails once only gets harder as the set shrinks.  A non-empty member
    disjoint from the top-element set cannot exist (its own top element is
    in there), so hitting that case raises ContradictionError.
    """
    columns = f.columns
    members = f.members
    nonempty = ((1 << f.n) - 1) & ~int(members[:1] == (0,))
    tilde = max_index_elements(f)
    missed = nonempty & ~_meeting(columns, tilde)
    if missed:
        a = _first_member(members, missed)
        raise ContradictionError(f"member {a:#x} avoids every top-ranked element")
    u_hat = tilde
    for x in elements_of(tilde):
        cand = u_hat & ~(1 << x)
        if _meeting(columns, cand) == nonempty:
            u_hat = cand
    k = u_hat.bit_count()

    witnesses: dict[int, int] = {}
    for x in elements_of(u_hat):
        exact = columns[x] & ~_meeting(columns, u_hat & ~(1 << x))
        if not exact:
            raise ContradictionError(
                f"no member meets the transversal exactly in element {x}; "
                "the transversal is not inclusion-minimal")
        witnesses[x] = _first_member(members, exact)

    # Non-empty submasks b of u_hat in ascending order, so b minus its lowest
    # element comes before b and P_b extends its union by one witness.
    pb: dict[int, int] = {}
    b = (-u_hat) & u_hat
    while b:
        low = b & -b
        pb[b] = pb.get(b ^ low, 0) | witnesses[low.bit_length() - 1]
        b = (b - u_hat) & u_hat

    chosen = set(pb.values()) | {0}
    full_extra = sum(1 for a in members if a & u_hat == u_hat and a not in chosen)
    return TransversalReport(u_hat=u_hat, k=k, singleton_witnesses=witnesses,
                             pb_family=pb, full_sets_not_in_p=full_extra)


def verify_transversal(f: SetFamily, tr: TransversalReport) -> list[str]:
    """Re-check every transversal invariant; returns violations found."""
    issues: list[str] = []
    members = set(f.members)
    nonempty = [a for a in f.members if a]
    m = f.universe_size
    rank = {x: r for r, x in enumerate(f.order, start=1)}
    tilde = max_index_elements(f)

    if tr.u_hat & ~tilde:
        issues.append("transversal is not a subset of the top-element set")
    for a in nonempty:
        if not a & tr.u_hat and tr.u_hat:
            issues.append(f"member {a:#x} avoids the transversal")
    if not tr.u_hat and nonempty:
        issues.append("empty transversal with non-empty members present")
    for x in elements_of(tr.u_hat):
        cand = tr.u_hat & ~(1 << x)
        if all(a & cand for a in nonempty):
            issues.append(f"transversal is not inclusion-minimal: {x} is removable")

    if sorted(tr.singleton_witnesses) != elements_of(tr.u_hat):
        issues.append("singleton witness keys differ from the transversal")
    for x, w in tr.singleton_witnesses.items():
        if w not in members:
            issues.append(f"singleton witness for {x} is not a member")
        if w & tr.u_hat != 1 << x:
            issues.append(f"singleton witness for {x} has the wrong trace")

    if len(tr.pb_family) != (1 << tr.k) - 1:
        issues.append("pattern family does not cover every non-empty pattern")
    if len(set(tr.pb_family.values())) != len(tr.pb_family):
        issues.append("pattern family members are not pairwise distinct")
    for b, p in tr.pb_family.items():
        if not b or b & ~tr.u_hat:
            issues.append(f"pattern {b:#x} is not a non-empty transversal subset")
        if p not in members:
            issues.append(f"pattern member for {b:#x} is not a member")
        if p & tr.u_hat != b:
            issues.append(f"pattern member for {b:#x} has trace != pattern")
    for x in elements_of(tr.u_hat):
        hits = sum(1 for b in tr.pb_family if b >> x & 1)
        if hits != 1 << (tr.k - 1):
            issues.append(f"element {x} lies in {hits} patterns, "
                          f"expected {1 << (tr.k - 1)}")

    chosen = set(tr.pb_family.values()) | {0}
    full_extra = sum(1 for a in f.members
                     if a & tr.u_hat == tr.u_hat and a not in chosen)
    if full_extra != tr.full_sets_not_in_p:
        issues.append(f"full-set count {tr.full_sets_not_in_p} != recomputed {full_extra}")

    ms = f.m_sets
    unions = a_sets(f)
    if sorted(unions) != elements_of(tilde):
        issues.append("a_sets keys differ from the top-element set")
    for x, ax in unions.items():
        if not ax >> x & 1:
            issues.append(f"a_sets[{x}] does not contain {x}")
        i = rank[x]
        for j in range(i + 1, m + 1):
            if ax & ~ms[j]:
                issues.append(f"a_sets[{x}] escapes m_sets[{j}]")
    for x in elements_of(tilde):
        i = rank[x]
        for j in range(m):
            if j != i and not ms[j] >> x & 1:
                issues.append(f"top element {x} missing from m_sets[{j}]")
    return issues


@dataclass(frozen=True)
class CountingAudit:
    """Frequency-counting ledger comparing n against its structural budget.

    With c = max frequency - m, the k transversal elements account for at
    most k*(m+c) incidences.  The pattern family spends k*2**(k-1) of them,
    each further member containing the whole transversal spends k, and every
    remaining non-empty member spends at least one.  Charging the expected
    m-k full sets gives the budget rhs; the four bullets record whether each
    summary observation held, as report data rather than hard errors.
    """

    m: int
    n: int
    k: int
    c: int
    incidence_total: int
    incidence_upper: int
    p_incidences: int
    p_family_size: int
    full_extra: int
    other_nonempty: int
    rhs: int
    bullets_ok: dict[str, bool]
    inequality_holds: bool


def counting_audit(f: SetFamily, tr: TransversalReport) -> CountingAudit:
    """Run the member-count audit against the transversal structure tr.

    pre: f union-closed, separating, validated, and tr its minimal
    transversal.  Never raises on a violated summary claim; those become
    False bullets and inequality_holds=False.
    """
    m, n, k = f.universe_size, f.n, tr.k
    counts = f.freq
    c = (max(counts) - m) if m >= 1 else 0

    u_hat_elems = elements_of(tr.u_hat)
    incidence_total = sum(counts[x] for x in u_hat_elems)
    incidence_upper = k * (m + c)
    p_incidences = sum(b.bit_count() for b in tr.pb_family)
    p_family_size = (1 << k) - 1 + (f.members[:1] == (0,))

    chosen = set(tr.pb_family.values())
    full_extra = tr.full_sets_not_in_p
    others = [a for a in f.members
              if a and a not in chosen and a & tr.u_hat != tr.u_hat]

    rhs = k * (m + c) + ((1 << k) - k * (1 << k >> 1)) + (m - k) * (1 - k)
    bullets = {
        "frequency_cap": all(counts[x] <= m + c for x in u_hat_elems),
        "p_family_incidences": p_incidences == k * (1 << k >> 1),
        "full_sets": full_extra >= m - k,
        "remaining_touch": all(a & tr.u_hat for a in others),
    }
    return CountingAudit(
        m=m, n=n, k=k, c=c,
        incidence_total=incidence_total,
        incidence_upper=incidence_upper,
        p_incidences=p_incidences,
        p_family_size=p_family_size,
        full_extra=full_extra,
        other_nonempty=len(others),
        rhs=rhs,
        bullets_ok=bullets,
        inequality_holds=n <= rhs,
    )
