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
from functools import lru_cache, reduce
from itertools import accumulate, combinations, compress
from operator import and_, or_

from .errors import ContradictionError, PreconditionError
from .family import BITS, SetFamily, elements_of


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
    not the rank-i one.  The ranks are relative to the family's frequency
    labeling f.order; the family's m_sets bound the entries from above.
    """

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
            # the smallest member among hits (inlined: m(m-1)/2 calls)
            witness = pair_witnesses[(i, j)] = members[(hits & -hits).bit_length() - 1]
            entry |= witness
        chain.append(entry)
    return ChainWitness(chain=tuple(chain), pair_witnesses=pair_witnesses)


def verify_chain_witness(f: SetFamily, w: ChainWitness) -> list[str]:
    """Re-check every chain invariant; returns human-readable violations.

    Each group of checks is first decided by one test over the whole chain,
    pair witnesses or m_sets against the ranks' bits; only a group that
    fails is walked entry by entry to name its violations, in the order of
    the groups below.
    """
    issues: list[str] = []
    m = f.universe_size
    order = f.order
    chain = w.chain
    expected_len = m if f.n >= 1 else 0
    if len(chain) != expected_len:
        issues.append(f"chain has {len(chain)} entries, expected {expected_len}")
        return issues

    members = set(f.members)
    covered = f.covered_mask
    ms = f.m_sets
    bits = list(map(BITS.__getitem__, order))  # by rank, lowest first
    # One pass from the top rank down, higher holding the elements ranked
    # above r.  Entry r of the chain or of m_sets holds all of them and not
    # the rank-r element iff its AND with those and that element is higher;
    # chain entries that all do so are pairwise distinct.
    chain_fit = True
    m_sets_fit = len(ms) == m + 1
    higher = 0
    length = len(chain)
    for r in range(m, 0, -1):
        below = higher | bits[r - 1]
        if r < length and chain[r] & below != higher:
            chain_fit = False
        if m_sets_fit and (ms[r] & below != higher
                           or r < length and chain[r] & ~ms[r]):
            m_sets_fit = False
        higher = below
    if chain and not (chain[0] == covered and not higher & ~covered
                      and chain_fit and members.issuperset(chain)):
        suffix = _rank_suffixes(bits)
        if chain[0] != covered:
            issues.append("chain[0] is not the universe")
        for i, entry in enumerate(chain):
            if entry not in members:
                issues.append(f"chain[{i}] is not a member")
            if i >= 1 and entry >> order[i - 1] & 1:
                issues.append(f"chain[{i}] contains its avoided element {order[i - 1]}")
            if suffix[i] & ~entry:
                issues.append(f"chain[{i}] misses a higher-ranked element")
        if len(set(chain)) != len(chain):
            issues.append("chain entries are not pairwise distinct")

    pairs, lower, upper = _rank_pairs(m)
    pw = w.pair_witnesses
    keys_fit = tuple(pw) == pairs
    if not keys_fit and set(pw) != set(pairs):
        issues.append("pair witness keys are not exactly the rank pairs i<j")
    # Keyed in rank-pair order, the (i, j) witness holds the rank-j bit and
    # not the rank-i one.
    witnesses = pw.values()
    upper_bits = list(map(bits.__getitem__, upper))
    if not (keys_fit and members.issuperset(witnesses)
            and not any(map(and_, witnesses, map(bits.__getitem__, lower)))
            and list(map(and_, witnesses, upper_bits)) == upper_bits):
        for (i, j), a in pw.items():
            if a not in members:
                issues.append(f"pair witness ({i},{j}) is not a member")
            xi, xj = order[i - 1], order[j - 1]
            if a >> xi & 1 or not a >> xj & 1:
                issues.append(f"pair witness ({i},{j}) fails the containment pattern")

    if len(ms) != m + 1:
        issues.append(f"m_sets has {len(ms)} entries, expected {m + 1}")
    elif not (m_sets_fit and ms[0] == covered and not (chain and chain[0] & ~ms[0])):
        suffix = _rank_suffixes(bits)
        if ms[0] != covered:
            issues.append("m_sets[0] is not the universe")
        for r in range(1, m + 1):
            if ms[r] >> order[r - 1] & 1:
                issues.append(f"m_sets[{r}] contains its avoided element")
            if suffix[r] & ~ms[r]:
                issues.append(f"m_sets[{r}] misses a higher-ranked element")
        for i, entry in enumerate(chain):
            if entry & ~ms[i]:
                issues.append(f"chain[{i}] is not contained in m_sets[{i}]")

    if m >= 1 and f.n >= 1:
        top = order[-1]
        if f.freq[top] < m:
            issues.append(
                f"top element {top} has frequency below the universe size {m}")
    return issues


def _rank_suffixes(bits: list[int]) -> list[int]:
    """Entry r: the OR of bits[r:], the elements ranked above r (0 at the end)."""
    return list(accumulate(reversed(bits), or_, initial=0))[::-1]


@lru_cache(maxsize=None)
def _rank_pairs(m: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...], tuple[int, ...]]:
    """The 1-based rank pairs (i, j), i < j <= m, in ascending order, with
    the 0-based positions i - 1 and j - 1 of each."""
    pairs = tuple(combinations(range(1, m + 1), 2))
    return pairs, tuple(i - 1 for i, _ in pairs), tuple(j - 1 for _, j in pairs)


@dataclass(frozen=True)
class TransversalReport:
    """A minimal member-hitting subset of the top-ranked elements.

    u_hat is the inclusion-minimal transversal obtained from the family's
    top-element set (max_index_elements) by greedily dropping elements in
    ascending id order; k = |u_hat| is u_hat.bit_count().  Minimality hands
    each x in u_hat a member whose whole trace on u_hat is {x}, the singleton
    witness pb_family[1 << x]; unions of those witnesses realize every
    non-empty intersection pattern B, so pb_family has exactly 2**k - 1
    pairwise distinct members.  The empty pattern is realizable only by the
    empty set.  The record holds only these choices; counting_audit counts
    the members that hold all of u_hat.
    """

    u_hat: int
    pb_family: dict[int, int]


def _u_columns(f: SetFamily, u_hat: int) -> list[int]:
    """The columns of u_hat's elements in ascending id order.  An id past
    the universe lies in no member, so its column is empty."""
    columns, m = f.columns, f.universe_size
    return [columns[x] if x < m else 0 for x in elements_of(u_hat)]


def max_index_elements(f: SetFamily) -> int:
    """Mask of elements that are the top-ranked element of some member."""
    return sum(compress(BITS, f.tops))


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
    in there), so hitting that case raises ContradictionError.  The report
    holds u_hat and pb_family only: the members holding all of u_hat are
    counted by counting_audit.
    """
    columns = f.columns
    members = f.members
    nonempty = ((1 << f.n) - 1) & ~int(members[:1] == (0,))
    tilde = max_index_elements(f)
    candidates = elements_of(tilde)
    # later[t]: the members meeting candidates[t:]
    later = [0] * (len(candidates) + 1)
    for t in range(len(candidates) - 1, -1, -1):
        later[t] = later[t + 1] | columns[candidates[t]]
    missed = nonempty & ~later[0]
    if missed:
        a = _first_member(members, missed)
        raise ContradictionError(f"member {a:#x} avoids every top-ranked element")
    # Dropping x leaves the members meeting the kept candidates before it
    # and all candidates after it.
    u_hat = tilde
    kept: list[int] = []
    meets = 0  # the members meeting the kept candidates
    for t, x in enumerate(candidates):
        if meets | later[t + 1] == nonempty:
            u_hat ^= 1 << x
        else:
            kept.append(x)
            meets |= columns[x]

    witnesses: dict[int, int] = {}
    for x in kept:
        others = 0  # the members meeting u_hat outside x
        for y in kept:
            if y != x:
                others |= columns[y]
        exact = columns[x] & ~others
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
    return TransversalReport(u_hat=u_hat, pb_family=pb)


def verify_transversal(f: SetFamily, tr: TransversalReport) -> list[str]:
    """Re-check every transversal invariant; returns violations found.

    As for the chain, each group of checks is first decided by one test:
    over index masks of members from u_hat's columns (their OR holds the
    members meeting u_hat), over the pattern family's keys and values, or
    over ANDs of m_sets; only a group that fails is walked member by member
    or element by element to name its violations.  The count of members
    holding all of u_hat is counting_audit's, not checked here.  An m_sets
    of the wrong length skips the m_sets group: verify_chain_witness names
    its length.
    """
    issues: list[str] = []
    members = f.members
    m = f.universe_size
    u_hat = tr.u_hat
    u_columns = _u_columns(f, u_hat)
    nonempty = ((1 << f.n) - 1) ^ (members[:1] == (0,))
    hit = twice = 0  # members meeting u_hat at least once, at least twice
    for column in u_columns:
        twice |= hit & column
        hit |= column
    tilde = max_index_elements(f)

    if u_hat & ~tilde:
        issues.append("transversal is not a subset of the top-element set")
    if u_hat and nonempty & ~hit:
        for a in members:
            if a and not a & u_hat:
                issues.append(f"member {a:#x} avoids the transversal")
    if not u_hat and nonempty:
        issues.append("empty transversal with non-empty members present")
    # x is removable when every non-empty member meets u_hat, and none of
    # them meets it in x alone.
    once = hit & ~twice
    if not nonempty & ~hit and not all(map(once.__and__, u_columns)):
        nonempty_members = [a for a in members if a]
        for x in elements_of(u_hat):
            cand = u_hat & ~(1 << x)
            if all(a & cand for a in nonempty_members):
                issues.append(f"transversal is not inclusion-minimal: {x} is removable")

    k = u_hat.bit_count()
    pb = tr.pb_family
    patterns = pb.values()
    member_set = set(members)
    if len(pb) != (1 << k) - 1:
        issues.append("pattern family does not cover every non-empty pattern")
    if len(set(patterns)) != len(pb):
        issues.append("pattern family members are not pairwise distinct")
    traced = list(map(u_hat.__and__, patterns)) == list(pb)  # so the keys lie in u_hat
    if not (traced and 0 not in pb and member_set.issuperset(patterns)):
        for b, p in pb.items():
            if not b or b & ~u_hat:
                issues.append(f"pattern {b:#x} is not a non-empty transversal subset")
            if p not in member_set:
                issues.append(f"pattern member for {b:#x} is not a member")
            if p & u_hat != b:
                issues.append(f"pattern member for {b:#x} has trace != pattern")
    # 2**k - 1 distinct non-empty keys inside u_hat are all its non-empty
    # subsets, and each element of u_hat lies in half of those.
    if not (len(pb) == (1 << k) - 1 and 0 not in pb
            and (traced or not reduce(or_, pb, 0) & ~u_hat)):
        for x in elements_of(u_hat):
            hits = sum(1 for b in pb if b >> x & 1)
            if hits != 1 << (k - 1):
                issues.append(f"element {x} lies in {hits} patterns, "
                              f"expected {1 << (k - 1)}")

    ms = f.m_sets
    if len(ms) != m + 1:
        return issues
    columns = f.columns
    order = f.order
    tops = f.tops
    # From the top rank down: inside is the AND of the m_sets above the
    # rank, which must hold the rank's a_set, and higher the elements
    # ranked above it, which its own m_set must hold.  A top element inside
    # its a_set, inside m_sets[0] and ranked above every m_set before its
    # own then lies in every m_set but its own.
    inside = -1
    higher = 0
    a_sets_fit = m_sets_fit = True
    for r in range(m, 0, -1):
        x = order[r - 1]
        topped = tops[x]
        if topped:
            ax = 0
            for y, column in enumerate(columns):
                if column & topped:
                    ax |= BITS[y]
            if not ax >> x & 1 or ax & ~inside:
                a_sets_fit = False
        if ms[r] & higher != higher:
            m_sets_fit = False
        inside &= ms[r]
        higher |= BITS[x]
    if not a_sets_fit:
        rank = dict(zip(order, range(1, m + 1)))
        for x, ax in a_sets(f).items():
            if not ax >> x & 1:
                issues.append(f"a_sets[{x}] does not contain {x}")
            i = rank[x]
            for j in range(i + 1, m + 1):
                if ax & ~ms[j]:
                    issues.append(f"a_sets[{x}] escapes m_sets[{j}]")
    if not (a_sets_fit and m_sets_fit and not tilde & ~ms[0]):
        rank = dict(zip(order, range(1, m + 1)))
        for x in elements_of(tilde):
            i = rank[x]
            for j in range(m):
                if j != i and not ms[j] >> x & 1:
                    issues.append(f"top element {x} missing from m_sets[{j}]")
    return issues


@dataclass
class CountingAudit:
    """Frequency-counting ledger comparing n against its structural budget.

    With c = max frequency - m, the k transversal elements account for at
    most k*(m+c) incidences.  The pattern family spends k*2**(k-1) of them,
    each further member containing the whole transversal spends k, and every
    remaining non-empty member spends at least one.  Charging the expected
    m-k full sets gives the budget rhs; the four bullets record whether each
    summary observation held, as report data rather than hard errors.
    frequency_cap holds by the definition of c: m + c is the largest
    frequency, so that bullet can never be False.

    Not frozen: a frozen dataclass sets each of its fields through
    object.__setattr__, which cost more than the audit's own arithmetic on
    a small family.
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
    False bullets and inequality_holds=False.  Members are counted as index
    masks over u_hat's columns, less the pattern members among them; this
    is the only count of the full sets (full_extra).  Frequencies are read
    from f.freq; an id of u_hat past the universe has frequency 0 and an
    empty column.
    """
    m, n, u_hat = f.universe_size, f.n, tr.u_hat
    k = u_hat.bit_count()
    counts = f.freq
    c = (max(counts) - m) if m >= 1 else 0
    u_counts = [counts[x] for x in elements_of(u_hat) if x < m]
    u_columns = _u_columns(f, u_hat)
    every = (1 << n) - 1
    hit = reduce(or_, u_columns, 0)  # the members meeting u_hat
    full = reduce(and_, u_columns, every)  # the members holding all of it
    p_incidences = sum(map(int.bit_count, tr.pb_family))
    empty_member = f.members[:1] == (0,)
    nonempty = every ^ empty_member

    # The full sets are the non-empty members holding all of u_hat that are
    # not pattern members; the other members are the non-empty ones that
    # neither hold all of u_hat nor are pattern members, and the touch
    # bullet asks that none of them misses u_hat.
    chosen = set(tr.pb_family.values()).intersection(f.members)
    chosen.discard(0)
    traces = list(map(u_hat.__and__, chosen))
    full_extra = (full & nonempty).bit_count() - traces.count(u_hat)
    others = (nonempty & ~full).bit_count() - len(traces) + traces.count(u_hat)

    rhs = k * (m + c) + ((1 << k) - k * (1 << k >> 1)) + (m - k) * (1 - k)
    bullets = {
        "frequency_cap": max(u_counts, default=0) <= m + c,
        "p_family_incidences": p_incidences == k * (1 << k >> 1),
        "full_sets": full_extra >= m - k,
        "remaining_touch": not u_hat or (nonempty & ~hit).bit_count() == traces.count(0),
    }
    return CountingAudit(
        m=m, n=n, k=k, c=c,
        incidence_total=sum(u_counts),
        incidence_upper=k * (m + c),
        p_incidences=p_incidences,
        p_family_size=(1 << k) - 1 + empty_member,
        full_extra=full_extra,
        other_nonempty=others,
        rhs=rhs,
        bullets_ok=bullets,
        inequality_holds=n <= rhs,
    )
