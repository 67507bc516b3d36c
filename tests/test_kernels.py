"""Fast family kernels against naive reference versions.

A family is validated in one pass; a per-member scan is its reference,
which must raise the same error for the same first faulty member.  The
package derives frequencies, separation, m-sets and witnesses from
bit-sliced columns, checks union-closure through join-irreducibles and
builds the exhaustive corpus by a search over subfamily codes.  The loops
below are the direct definitions; property tests check that both agree on
random families with up to 8 elements, union-closed or not, and the
exhaustive streams are compared with a scan over every subfamily code for
m <= 4 and with an extension search over tuples of masks for m <= 4 and
the first 20 000 families at m = 5; both compress a leaf that leaves
elements uncovered by drop_unused_elements, the reference for the table
the search renumbers such a leaf through.  A seeded random family decides its separating quotient from the draws
that grew its closure; closing every draw and taking the quotient of the
closure is its reference.  Generator mode keeps one family of
that stream per isomorphism class; its reference closes every small set
of masks and names each class by its least relabeling over all m!
element permutations.  Member masks are unpacked and written a byte at a
time; the per-bit loop and the per-id joins are their references, on masks
of up to 130 bits and families over up to 64 elements.  Family documents
are decoded a family at a time; a per-id reader is their reference, on
well-formed and malformed documents alike.  The text form is read a line
at a time; a per-token loop is its reference, on well-formed texts and on
texts with bad ids.  The chain and transversal verifiers and the counting
audit decide each group of checks over column bitmaps first; their member-
and rank-loop references must give the same issues, in the same order, and
the same audit record, on honest witnesses and on witnesses or cached
family data with one planted edit.  The corpus battery runs one stage at a
time over each batch; the family-by-family sweep is its reference, which
must give the same report or raise the same exception on corpora of
rejected, non-separating and separating families and lines with planted
faults, in one process and in forked batches.
"""

import copy
import itertools
import json
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ucsets import (
    SetFamily,
    corpus_verify,
    drop_unused_elements,
    enumerate_union_closed,
    family_from_masks,
    find_union_gap,
    find_unseparated_pair,
    is_separating,
    is_union_closed,
    make_family,
    random_family,
    separating_quotient,
    splitmix64,
    union_closure,
)
from ucsets import bounds, search
from ucsets.errors import CapacityError, ContradictionError, FamilyParseError
from ucsets.family import (
    _member_texts,
    closure_of_masks,
    column_signatures,
    element_frequencies,
    elements_of,
    elements_text,
    family_label,
    frankl_witnesses,
    frequency_profile,
    join_irreducibles,
    set_label,
)
from ucsets.formats import (
    _Line,
    family_from_json_dict,
    family_to_json_dict,
    family_to_ndjson,
    family_to_text,
    parse_members_text,
)
from ucsets.witnesses import (
    ChainWitness,
    CountingAudit,
    a_sets,
    counting_audit,
    falgas_ravry_chain,
    m_sets,
    max_index_elements,
    minimal_transversal,
    verify_chain_witness,
    verify_transversal,
)

# -- naive reference versions ----------------------------------------------


def naive_union_gap(f):
    """Every pair of members in canonical order; the first missing union."""
    members = f.members
    present = set(members)
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if a | b not in present:
                return a, b
    return None


def naive_join_irreducibles(f):
    """Members that are not the union of the members strictly below them;
    a member with nothing below it, the empty set included, is one."""
    out = []
    for b in f.members:
        below = 0
        for a in f.members:
            if a != b and a | b == b:
                below |= a
        if below != b or b == 0:
            out.append(b)
    return out


def naive_frequencies(f):
    """Per member, count each element it contains."""
    counts = [0] * f.universe_size
    for mask in f.members:
        for x in range(f.universe_size):
            if mask >> x & 1:
                counts[x] += 1
    return counts


def naive_columns(f):
    """Per member, set its index bit in the column of each element it contains."""
    sigs = [0] * f.universe_size
    for idx, mask in enumerate(f.members):
        for x in range(f.universe_size):
            if mask >> x & 1:
                sigs[x] |= 1 << idx
    return sigs


def naive_unseparated_pair(f):
    sigs = naive_columns(f)
    for y in range(f.universe_size):
        for x in range(y):
            if sigs[x] == sigs[y]:
                return x, y
    return None


def naive_order(f):
    counts = naive_frequencies(f)
    return tuple(sorted(range(f.universe_size), key=lambda x: (counts[x], x)))


def naive_top(mask, order):
    return max((x for x in order if mask >> x & 1), key=order.index)


def naive_m_sets(f):
    out = [f.covered_mask]
    for x in naive_order(f):
        u = 0
        for mask in f.members:
            if not mask >> x & 1:
                u |= mask
        out.append(u)
    return tuple(out)


def naive_family_fault(m, members):
    """(error type, message) for the first fault a per-member scan meets
    in SetFamily(m, members), or None when there is none: a universe size
    outside 0..64, else the first member that is negative or not above the
    one before it, or that holds an id at or past m."""
    if not 0 <= m <= 64:
        return CapacityError, f"universe size {m} outside 0..64"
    for i, mask in enumerate(members):
        if mask < 0 or i > 0 and mask <= members[i - 1]:
            return ValueError, "members must be distinct masks in ascending order"
        if mask >> m:
            return ValueError, f"member {mask:#x} is not a subset of the universe"
    return None


def naive_a_sets(f):
    order = naive_order(f)
    acc = {}
    for mask in f.members:
        if mask:
            x = naive_top(mask, order)
            acc[x] = acc.get(x, 0) | mask
    return dict(sorted(acc.items()))


def naive_pair_witnesses(f):
    order = naive_order(f)
    m = f.universe_size
    return {(i, j): next(a for a in f.members
                         if not a >> order[i - 1] & 1 and a >> order[j - 1] & 1)
            for i in range(1, m + 1) for j in range(i + 1, m + 1)}


def naive_pb_family(f, u_hat):
    """P_b for every non-empty b inside u_hat: the union of the singleton
    witnesses of b's elements, in ascending order of b.  The singleton
    witness of x is the smallest member whose trace on u_hat is {x}."""
    xs = naive_elements(u_hat)
    witness = {x: min(a for a in f.members if a & u_hat == 1 << x) for x in xs}
    out = {}
    for b in sorted(sum(1 << x for x in combo)
                    for size in range(1, len(xs) + 1)
                    for combo in itertools.combinations(xs, size)):
        p = 0
        for x in naive_elements(b):
            p |= witness[x]
        out[b] = p
    return out


def naive_verify_chain_witness(f, w):
    """Every chain invariant, one entry, pair and rank at a time."""
    issues = []
    m = f.universe_size
    members = set(f.members)
    order = f.order
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


def naive_verify_transversal(f, tr):
    """Every transversal invariant, one member, pattern and rank at a time."""
    issues = []
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

    k = tr.u_hat.bit_count()
    if len(tr.pb_family) != (1 << k) - 1:
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
        if hits != 1 << (k - 1):
            issues.append(f"element {x} lies in {hits} patterns, "
                          f"expected {1 << (k - 1)}")

    ms = f.m_sets
    if len(ms) != m + 1:  # the chain verifier names the length
        return issues
    for x, ax in a_sets(f).items():
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


def naive_counting_audit(f, tr):
    """The audit's counts and bullets, one member at a time.  An id of u_hat
    past the universe has frequency 0."""
    m, n, k = f.universe_size, f.n, tr.u_hat.bit_count()
    counts = f.freq
    c = (max(counts) - m) if m >= 1 else 0

    u_hat_freqs = [counts[x] if x < m else 0 for x in elements_of(tr.u_hat)]
    incidence_total = sum(u_hat_freqs)
    incidence_upper = k * (m + c)
    p_incidences = sum(b.bit_count() for b in tr.pb_family)
    p_family_size = (1 << k) - 1 + (f.members[:1] == (0,))

    chosen = set(tr.pb_family.values())
    full_extra = sum(1 for a in f.members
                     if a and a not in chosen and a & tr.u_hat == tr.u_hat)
    others = [a for a in f.members
              if a and a not in chosen and a & tr.u_hat != tr.u_hat]

    rhs = k * (m + c) + ((1 << k) - k * (1 << k >> 1)) + (m - k) * (1 - k)
    bullets = {
        "frequency_cap": all(freq <= m + c for freq in u_hat_freqs),
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


def naive_verify_batch(families):
    """The battery family by family: each family is decoded and goes through
    every check before the next one starts.  It calls the battery's
    functions through the search module, so what a test plants there
    reaches both sweeps."""
    rep = search.CorpusReport()
    for f in families:
        if not isinstance(f, SetFamily):
            f = f.decode()
        rep.total_families += 1
        if not f.covers_universe:
            missing = elements_of(f.universe_mask & ~f.covered_mask)
            rep.rejections.append((family_label(f),
                                   f"not validated: element ids {missing} occur in no member"))
            continue
        gap = search.find_union_gap(f)
        if gap is not None:
            rep.rejections.append((family_label(f),
                                   f"not union-closed: the union of {set_label(gap[0])} "
                                   f"and {set_label(gap[1])} is missing"))
            continue
        rep.union_closed_count += 1
        if not search.is_separating(f):
            continue
        rep.separating_count += 1

        witnessless = f.universe_size >= 1 and not search.frankl_witnesses(f)
        if witnessless:
            rep.frankl_violations.append(family_label(f))

        if f.n >= 1:
            w = search.falgas_ravry_chain(f)
            for issue in search.verify_chain_witness(f, w):
                rep.invariant_failures.append((family_label(f), "chain: " + issue))

        tr = search.minimal_transversal(f)
        for issue in search.verify_transversal(f, tr):
            rep.invariant_failures.append((family_label(f), "transversal: " + issue))

        audit = search.counting_audit(f, tr)
        for name, passed in audit.bullets_ok.items():
            if not passed:
                rep.audit_failures.append((family_label(f), name))
        if not audit.inequality_holds:
            rep.audit_failures.append((family_label(f), "inequality"))

        if 1 <= f.n <= 2 * f.universe_size:
            if 2 * f.freq[f.order[-1]] < f.n:
                rep.invariant_failures.append((
                    family_label(f),
                    "lemma: top element below half frequency despite n <= 2m"))

        alarm = witnessless and search.applicability(f).alarm
        if alarm:
            rep.invariant_failures.append((family_label(f), "applicability: " + alarm))
    return rep


def naive_quotient(f):
    """Group elements by column; rebuild each member over the class
    representatives, classes numbered by lowest id."""
    sigs = naive_columns(f)
    groups = {}
    for x in range(f.universe_size):
        if sigs[x]:
            groups.setdefault(sigs[x], []).append(x)
    classes = sorted(groups.values())
    members = sorted(
        sum(1 << j for j, cls in enumerate(classes) if mask >> cls[0] & 1)
        for mask in f.members)
    return SetFamily(len(classes), tuple(members)), tuple(map(tuple, classes))


def naive_random_family(m, generators, seed):
    """The two-pass composition: close all the draws, then take the
    separating quotient of the closure.  Returns it with its partition."""
    full = (1 << m) - 1
    nonzero = filter(None, (v & full for v in splitmix64(seed)))
    draws = [next(nonzero) for _ in range(generators)]
    return separating_quotient(SetFamily(m, tuple(closure_of_masks(draws))))


@lru_cache(maxsize=None)
def naive_exhaustive(m):
    """Every subfamily code of P([m]) in increasing order, kept when all
    pairwise unions are members; compressed as the package yields them."""
    p = 1 << m
    out = []
    for code in range(1 << p):
        masks = [i for i in range(p) if code >> i & 1]
        if all(code >> (a | b) & 1 for i, a in enumerate(masks) for b in masks[i + 1:]):
            out.append(drop_unused_elements(SetFamily(m, tuple(masks)))[0])
    return out


NAIVE_FILTERS = {
    "all": lambda f, m: True,
    "validated": lambda f, m: f.universe_size == m,
    "separating": lambda f, m: naive_unseparated_pair(f) is None,
}


def naive_passes(fam, m, family_filter):
    """Filter a compressed family; it covered the ambient universe exactly
    when compression kept all m elements."""
    if family_filter == "all":
        return True
    if family_filter == "validated":
        return fam.universe_size == m
    return is_separating(fam)


def naive_enumerate(m, family_filter):
    """The extension search over tuples of masks: decide the masks from the
    top down, leaving each out before adding it, and add x only when every
    x | a with a already chosen is a member; compress and filter each leaf."""
    def extend(x, chosen, code):
        # Masks above x are decided; chosen is union-closed and ascending.
        if x < 0:
            fam, _ = drop_unused_elements(SetFamily(m, chosen))
            if naive_passes(fam, m, family_filter):
                yield fam
            return
        yield from extend(x - 1, chosen, code)
        code |= 1 << x
        if all(code >> (x | a) & 1 for a in chosen):
            yield from extend(x - 1, (x,) + chosen, code)
    return extend((1 << m) - 1, (), 0)


def naive_elements(mask):
    """Isolate the lowest set bit, one bit at a time."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def naive_text(mask):
    return ",".join(str(x) for x in naive_elements(mask))


def naive_family_text(f):
    lines = [naive_text(mask) if mask else "-" for mask in f.members]
    return "\n".join(lines) + ("\n" if lines else "")


def naive_ndjson(f):
    doc = {"universe_size": f.universe_size,
           "members": [naive_elements(mask) for mask in f.members]}
    return compact_json(doc)


def compact_json(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def naive_read(doc):
    """The family of a JSON family document, checked one id at a time.

    Faults are named in reading order: the document, then each member's ids
    in turn, a repeated id once its member is read, the universe size, and
    last a repeated member.
    """
    if not isinstance(doc, dict):
        raise FamilyParseError("family document must be a JSON object")
    extra = sorted(set(doc) - {"universe_size", "members"})
    if extra:
        raise FamilyParseError(f"unknown family fields {extra}")
    missing = sorted({"universe_size", "members"} - set(doc))
    if missing:
        raise FamilyParseError(f"missing family fields {missing}")
    m, members = doc["universe_size"], doc["members"]
    if type(m) is bool or not isinstance(m, int):
        raise FamilyParseError("universe_size must be an integer")
    if not isinstance(members, list):
        raise FamilyParseError("members must be an array of arrays")
    masks = []
    for i, ids in enumerate(members):
        if not isinstance(ids, list):
            raise FamilyParseError(f"members[{i}] must be an array of integers")
        mask, repeated = 0, None
        for x in ids:
            if type(x) is not int:
                raise FamilyParseError(f"members[{i}] must be an array of integers")
            if x < 0:
                raise FamilyParseError(f"members[{i}] contains a negative element id")
            if x >= 64:
                raise FamilyParseError(f"members[{i}] exceeds the 64-element capacity")
            if mask >> x & 1 and repeated is None:
                repeated = x
            mask |= 1 << x
        if repeated is not None:
            raise FamilyParseError(f"members[{i}] repeats element id {repeated}")
        masks.append(mask)
    used = max(masks, default=0).bit_length()
    if m < used:
        raise FamilyParseError(
            f"universe_size {m} too small for members using {used} elements")
    if m > 64:
        raise FamilyParseError(f"universe size {m} outside 0..64")
    for j, mask in enumerate(masks):
        if mask in masks[:j]:
            raise FamilyParseError(f"members[{j}] repeats members[{masks.index(mask)}]")
    return SetFamily(m, tuple(sorted(masks)))


def naive_members_text(text):
    """The member masks of the text form, one id token at a time; the first
    bad id is named with its line."""
    masks = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "-":
            masks.append(0)
            continue
        mask = 0
        for token in line.replace(",", " ").split():
            try:
                x = int(token)
            except ValueError:
                raise FamilyParseError(f"invalid element id {token!r}", line=lineno) from None
            if x < 0:
                raise FamilyParseError(f"negative element id {x}", line=lineno)
            if x >= 64:
                raise FamilyParseError(f"element id {x} exceeds the 64-element capacity",
                                       line=lineno)
            mask |= 1 << x
        masks.append(mask)
    return masks


def read_outcome(reader, doc):
    try:
        f = reader(doc)
    except FamilyParseError as exc:
        return "error", str(exc)
    return "family", f.universe_size, f.members


# -- strategies ------------------------------------------------------------


@st.composite
def families(draw, max_m=8):
    """Random families over m <= max_m elements, unused ids allowed; half of
    them are closed under union first."""
    m = draw(st.integers(0, max_m))
    masks = draw(st.lists(st.integers(0, (1 << m) - 1), max_size=24))
    f = family_from_masks(masks, universe_size=m)
    return union_closure(f) if draw(st.booleans()) else f


@st.composite
def member_tuples(draw):
    """(universe_size, members) for SetFamily: sizes 0..64 and now and
    then -1 or 65, with ascending masks inside the universe and up to three
    faults at drawn places: two members swapped, or a repeated, negative
    or out-of-universe mask put in."""
    m = draw(st.integers(-1, 65))
    width = min(max(m, 0), 64)
    members = sorted(draw(st.sets(st.integers(0, (1 << width) - 1), max_size=12)))
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["swap", "repeat", "negative", "outside"]))
        at = draw(st.integers(0, len(members)))
        if fault == "swap" and len(members) >= 2:
            i = draw(st.integers(0, len(members) - 2))
            members[i], members[i + 1] = members[i + 1], members[i]
        elif fault == "repeat" and members:
            members.insert(at, draw(st.sampled_from(members)))
        elif fault == "negative":
            members.insert(at, -draw(st.integers(1, 1 << 70)))
        elif fault == "outside":
            members.insert(at, draw(st.integers(0, (1 << width) - 1))
                           | 1 << draw(st.integers(width, 70)))
    return m, tuple(members)


@st.composite
def wide_families(draw):
    """Families over m <= 64 elements, not closed, unused ids allowed."""
    m = draw(st.integers(0, 64))
    masks = draw(st.lists(st.integers(0, (1 << m) - 1), max_size=24))
    return family_from_masks(masks, universe_size=m)


@st.composite
def byte_sparse_families(draw):
    """Families over m <= 64 elements whose member bytes are often zero,
    the low bytes included."""
    m = draw(st.integers(0, 64))
    byte = st.one_of(st.just(0), st.integers(1, 255))
    masks = draw(st.lists(st.lists(byte, min_size=8, max_size=8), max_size=24))
    full = (1 << m) - 1
    return family_from_masks([int.from_bytes(bytes(b), "little") & full for b in masks], m)


BAD_IDS = [True, False, 1.0, 2.5, -1, 64, 1 << 70, "0", None, [0], {}]
BAD_MEMBERS = [0, 1.0, True, "0", None, {"0": 1}, [[0]]]
BAD_UNIVERSES = [True, 3.0, "4", None, -1, 65, 1 << 70]


@st.composite
def family_documents(draw):
    """JSON family documents as json.loads returns them: well-formed ones,
    members in canonical order or as drawn, and ones with a few faults put
    in at drawn places: a malformed id, member or universe size, a
    repeated id or member, a missing or unknown field."""
    m = draw(st.integers(0, 64))
    ids = st.integers(0, max(m - 1, 0))
    members = draw(st.lists(st.lists(ids, unique=True, max_size=8), max_size=12))
    if draw(st.booleans()):
        masks = sorted({sum(1 << x for x in member) for member in members})
        members = [elements_of(mask) for mask in masks]
    doc = {"universe_size": m, "members": members}
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(["id", "repeat-id", "member", "repeat-member",
                                      "universe", "field"]))
        lists = [member for member in members if type(member) is list]
        if fault in ("id", "repeat-id") and lists:
            member = draw(st.sampled_from(lists))
            at = draw(st.integers(0, len(member)))
            if fault == "id":
                member.insert(at, copy.deepcopy(draw(st.sampled_from(BAD_IDS))))
            elif member:
                member.insert(at, draw(st.sampled_from(member)))
        elif fault in ("member", "repeat-member"):
            at = draw(st.integers(0, len(members)))
            if fault == "member":
                members.insert(at, copy.deepcopy(draw(st.sampled_from(BAD_MEMBERS))))
            elif lists:
                members.insert(at, list(draw(st.sampled_from(lists))))
        elif fault == "universe":
            doc["universe_size"] = draw(st.sampled_from(BAD_UNIVERSES))
        elif fault == "field":
            del doc[draw(st.sampled_from(sorted(doc)))]
            field = draw(st.sampled_from(["extra", "members", "universe_size"]))
            doc[field] = draw(st.sampled_from([[], 0]))
    return doc


# Id tokens as the text form may hold them: plain ids, ids that int()
# reads in another spelling, and bad ones.
ID_TOKENS = st.one_of(
    st.integers(0, 63).map(str),
    st.sampled_from(["007", "+3", "1_0", "\u0663", "-0", "-1", "64", "99", "x", "1.0",
                     "-", "0x1", "9" * 5000]))
SEPARATORS = st.sampled_from([",", " ", ", ", "\t", ",,"])


@st.composite
def text_lines(draw):
    """One line of the text form: ids between separators, maybe with a
    comment after them, or an empty-set, blank or comment line."""
    kind = draw(st.sampled_from(["ids", "ids", "ids", "-", " - ", "", "# note"]))
    if kind != "ids":
        return kind
    line = "".join(token + draw(SEPARATORS) for token in draw(st.lists(ID_TOKENS, max_size=8)))
    if draw(st.booleans()):
        line += "# " + draw(ID_TOKENS)
    return line


member_texts = st.lists(text_lines(), max_size=10).map("\n".join)


def separating_union_closed(f):
    q, _ = separating_quotient(union_closure(f))
    return q


# -- properties ------------------------------------------------------------

SETTINGS = settings(max_examples=300, deadline=None)


@SETTINGS
@given(families())
def test_union_gap_matches_pairwise_scan(f):
    expected = naive_union_gap(f)
    assert find_union_gap(f) == expected
    assert is_union_closed(f) == (expected is None)
    irreducibles = join_irreducibles(f)
    if expected is None:
        assert irreducibles == naive_join_irreducibles(f)
    else:
        assert irreducibles is None


@SETTINGS
@given(families())
def test_frequencies_and_columns_match_member_loops(f):
    assert element_frequencies(f) == naive_frequencies(f)
    assert column_signatures(f) == naive_columns(f)
    assert find_unseparated_pair(f) == naive_unseparated_pair(f)
    assert is_separating(f) == (naive_unseparated_pair(f) is None)
    prof = frequency_profile(f)
    assert prof.freq == dict(enumerate(naive_frequencies(f)))
    assert prof.order == naive_order(f)


@SETTINGS
@given(families())
def test_m_sets_and_top_elements_match_member_loops(f):
    assert m_sets(f) == naive_m_sets(f)
    expected = naive_a_sets(f)
    assert a_sets(f) == expected
    assert max_index_elements(f) == sum(1 << x for x in expected)


@pytest.mark.parametrize("f, expected", [
    # The largest member omitting 2 is {1}, but {0} omits 2 as well.
    (family_from_masks([0b001, 0b010], 3), (0b011, 0b011, 0b010, 0b001)),
    (family_from_masks([0b0011, 0b0100, 0b1000], 4), (0b1111, 0b1100, 0b1100, 0b1011, 0b0111)),
    (family_from_masks([], 2), (0, 0, 0)),
    (family_from_masks([0b11], 2), (0b11, 0, 0)),
])
def test_m_sets_add_what_the_largest_omitting_member_misses(f, expected):
    assert f.m_sets == naive_m_sets(f) == expected


@SETTINGS
@given(member_tuples())
@example((3, (0, 0b1000)))  # the empty member, then one past the universe
@example((64, (0, 1 << 64)))
def test_family_validation_matches_member_scan(drawn):
    m, members = drawn
    fault = naive_family_fault(m, members)
    if fault is None:
        f = SetFamily(m, members)
        assert (f.universe_size, f.members, f.n) == (m, members, len(members))
        assert f.covered_mask == sum(1 << x for x in range(m)
                                     if any(mask >> x & 1 for mask in members))
    else:
        with pytest.raises(fault[0]) as raised:
            SetFamily(m, members)
        assert (type(raised.value), str(raised.value)) == fault


@SETTINGS
@given(families(max_m=6))
def test_pair_witnesses_match_first_member_scan(f):
    g = separating_union_closed(f)
    if g.n >= 1:
        assert falgas_ravry_chain(g).pair_witnesses == naive_pair_witnesses(g)


@SETTINGS
@given(families(max_m=7))
def test_pb_family_matches_per_pattern_union(f):
    g = separating_union_closed(f)
    if g.n >= 1:
        tr = minimal_transversal(g)
        expected = naive_pb_family(g, tr.u_hat)
        assert tr.pb_family == expected
        assert list(tr.pb_family) == list(expected)


def test_consecutive_families_keep_their_own_profiles():
    # Same universe and member count, different members: a profile carried
    # over from one family would give the other wrong frequencies.
    f = make_family([set(), {0}, {0, 1}, {0, 1, 2}])
    g = make_family([set(), {2}, {1, 2}, {0, 1, 2}])
    for first, second in ((f, g), (g, f)):
        assert element_frequencies(first) == naive_frequencies(first)
        assert element_frequencies(second) == naive_frequencies(second)
        assert m_sets(second) == naive_m_sets(second)
        assert a_sets(second) == naive_a_sets(second)
    assert f.columns is not g.columns
    assert corpus_verify([f, g]).ok
    broken = make_family([{0}, {1}, {0, 1, 2}])
    rep = corpus_verify([f, broken, g])
    assert rep.rejections == [("{{0},{1},{0,1,2}}",
                               "not union-closed: the union of {0} and {1} is missing")]
    assert rep.separating_count == 2


@SETTINGS
@given(families())
def test_separating_quotient_matches_member_rebuild(f):
    assert separating_quotient(f) == naive_quotient(f)


# (m, seeds) of the random_family reference sample, each m with every
# generator count 0..12; m = 64 is the capacity edge.
RANDOM_SAMPLE = [*((m, range(50)) for m in range(1, 13)), (64, range(4))]


def test_random_family_matches_closure_then_quotient():
    # random_family decides the quotient from the draws that grew the
    # closure; the sample reaches its as-is closure, its projection with
    # merged classes and with dropped elements, and both at once.
    kinds = Counter()
    for m, seeds in RANDOM_SAMPLE:
        for g in range(13):
            for seed in seeds:
                expected, classes = naive_random_family(m, g, seed)
                assert random_family(m, g, seed) == expected, (m, g, seed)
                merged = len(classes) < sum(map(len, classes))
                dropped = sum(map(len, classes)) < m
                kinds[merged, dropped] += 1
    assert set(kinds) == {(False, False), (True, False), (False, True), (True, True)}


@pytest.mark.parametrize("family_filter", sorted(NAIVE_FILTERS))
@pytest.mark.parametrize("m", range(5))
def test_exhaustive_stream_matches_code_scan(m, family_filter):
    keep = NAIVE_FILTERS[family_filter]
    expected = [f for f in naive_exhaustive(m) if keep(f, m)]
    got = list(enumerate_union_closed(m, family_filter=family_filter))
    assert [f.members for f in got] == [f.members for f in expected]
    assert got == expected


@pytest.mark.parametrize("family_filter", sorted(NAIVE_FILTERS))
def test_exhaustive_stream_matches_mask_tuple_search(family_filter):
    # Families compare by universe_size and members, so list equality
    # checks both and the order.
    for m in range(5):
        assert list(enumerate_union_closed(m, family_filter=family_filter)) == \
            list(naive_enumerate(m, family_filter)), m
    # Past EXHAUSTIVE_LIMIT, the start of the m = 5 stream.
    prefix = 20_000
    assert list(itertools.islice(search._enumerate_exhaustive(5, family_filter), prefix)) == \
        list(itertools.islice(naive_enumerate(5, family_filter), prefix))


def naive_canonical_form(f):
    """Lexicographically least relabeling of f: the sorted member tuples
    under all m! element permutations, each mask relabeled a bit at a time."""
    m = f.universe_size
    return SetFamily(m, min(
        tuple(sorted(sum(1 << p[i] for i in range(m) if x >> i & 1) for x in f.members))
        for p in itertools.permutations(range(m))))


@lru_cache(maxsize=None)
def naive_generators(m, family_filter, max_generators):
    """Close every set of at most max_generators masks of P([m]) (all of
    them when None), compress, filter, canonicalise and deduplicate."""
    keep = NAIVE_FILTERS[family_filter]
    p = 1 << m
    top = p if max_generators is None else min(max_generators, p)
    out = set()
    for size in range(top + 1):
        for combo in itertools.combinations(range(p), size):
            fam, _ = drop_unused_elements(SetFamily(m, tuple(closure_of_masks(combo))))
            if keep(fam, m):
                out.add(naive_canonical_form(fam))
    return out


GENERATOR_CASES = ([(m, g) for m in range(4) for g in [*range((1 << m) + 2), None]]
                   + [(4, g) for g in range(5)])


@pytest.mark.parametrize("m", range(5))
def test_tied_relabelings_are_the_frequency_stabilisers(m):
    # Tie pattern ties (bit j: elements j and j + 1 are tied) is realised by
    # the frequencies freq[j + 1] = freq[j] - 1 unless bit j is set; its
    # entry holds the mask maps of the other permutations that keep freq.
    tied = search._tied_relabelings(m)
    assert len(tied) == 1 << max(m - 1, 0)
    for ties, maps in enumerate(tied):
        freq = [0]
        for j in range(m - 1):
            freq.append(freq[-1] - (not ties >> j & 1))
        expected = [[sum(1 << p[i] for i in range(m) if x >> i & 1) for x in range(1 << m)]
                    for p in itertools.permutations(range(m))
                    if p != tuple(range(m)) and all(freq[p[i]] == freq[i] for i in range(m))]
        assert sorted(maps) == sorted(expected), (m, ties)


@pytest.mark.parametrize("family_filter", sorted(NAIVE_FILTERS))
def test_generator_classes_match_closed_mask_sets(family_filter):
    for m, g in GENERATOR_CASES:
        got = enumerate_union_closed(m, mode="generators", family_filter=family_filter,
                                     max_generators=g)
        classes = [naive_canonical_form(f) for f in got]
        assert len(classes) == len(set(classes)), (m, g)  # one family per class
        assert set(classes) == naive_generators(m, family_filter, g), (m, g)


@pytest.mark.parametrize("family_filter", sorted(NAIVE_FILTERS))
def test_generator_stream_is_ordered_part_of_exhaustive_stream(family_filter):
    # Each class is stood for by a family the exhaustive stream yields, in
    # the same order, with frequencies that do not increase with the id.
    streams = {m: list(enumerate_union_closed(m, family_filter=family_filter))
               for m in range(5)}
    for m, g in [*GENERATOR_CASES, (4, None)]:
        got = list(enumerate_union_closed(m, mode="generators", family_filter=family_filter,
                                          max_generators=g))
        exhaustive = iter(streams[m])
        assert all(f in exhaustive for f in got), (m, g)
        assert all(list(f.freq) == sorted(f.freq, reverse=True) for f in got), (m, g)


FULL_64 = (1 << 64) - 1
CODEC_EDGES = [
    SetFamily(0, ()),
    family_from_masks([0]),
    family_from_masks([0, 1, FULL_64]),
    family_from_masks([FULL_64]),
    family_from_masks([1 << 63, 0xFF << 56, 0x0101010101010101]),
    family_from_masks([1], 3),
    family_from_masks([], 5),
    family_from_masks([0x100, 0xFF00, 1 << 40 | 1 << 8], 41),
    family_from_masks([0, 1 << 12, 0x1F00], 13),
]


@SETTINGS
@given(st.integers(0, (1 << 130) - 1))
def test_elements_match_per_bit_loop(mask):
    assert elements_of(mask) == naive_elements(mask)
    assert elements_text(mask) == naive_text(mask)


@pytest.mark.parametrize("mask", [0, 1, 0xFF, 1 << 63, FULL_64, 1 << 64,
                                  FULL_64 << 1, (1 << 130) - 1, 1 << 129])
def test_elements_match_per_bit_loop_at_byte_and_word_edges(mask):
    assert elements_of(mask) == naive_elements(mask)
    assert elements_text(mask) == naive_text(mask)


def check_codec(f):
    texts = [naive_text(mask) for mask in f.members]
    assert _member_texts(f) == [elements_text(mask) for mask in f.members] == texts
    line = family_to_ndjson(f)
    assert line == naive_ndjson(f) == compact_json(family_to_json_dict(f))
    assert family_to_text(f) == naive_family_text(f)
    assert family_label(f) == "{" + ",".join(
        "{" + naive_text(mask) + "}" for mask in f.members) + "}"


@SETTINGS
@given(wide_families())
def test_writers_match_per_id_joins(f):
    check_codec(f)


@SETTINGS
@given(byte_sparse_families())
def test_writers_match_per_id_joins_on_sparse_bytes(f):
    check_codec(f)


@pytest.mark.parametrize("f", CODEC_EDGES, ids=[
    "empty-family", "empty-member", "empty-and-full-64", "full-64",
    "top-bytes", "padded-3", "padded-empty", "zero-low-bytes", "partial-byte-13"])
def test_writers_match_per_id_joins_on_edge_families(f):
    check_codec(f)


@pytest.mark.parametrize("m", range(65))
def test_writers_match_per_id_joins_at_every_universe_size(m):
    full = (1 << m) - 1
    masks = [0, full, 1 << max(m - 1, 0), 0x5555555555555555 & full, full & ~0xFF]
    check_codec(family_from_masks([mask & full for mask in masks], m))


def test_family_documents_copy_their_fault_pools():
    # A fault put in by reference could be edited by a later fault, and the
    # edit would change the pool that later examples and replays draw from.
    pools = copy.deepcopy((BAD_IDS, BAD_MEMBERS))
    mutable = {id(x) for x in BAD_IDS + BAD_MEMBERS if isinstance(x, (list, dict))}

    def parts(x):
        yield x
        if isinstance(x, dict):
            x = list(x.values())
        if isinstance(x, list):
            for y in x:
                yield from parts(y)

    @settings(max_examples=500, database=None, deadline=None, derandomize=True)
    @given(family_documents())
    def draw_documents(doc):
        assert not any(id(x) in mutable for x in parts(doc))

    draw_documents()
    assert (BAD_IDS, BAD_MEMBERS) == pools


@SETTINGS
@given(family_documents())
def test_reader_matches_per_id_reference(doc):
    assert read_outcome(family_from_json_dict, doc) == read_outcome(naive_read, doc)


def text_outcome(reader, text):
    try:
        return "masks", reader(text)
    except FamilyParseError as exc:
        return "error", str(exc)


@SETTINGS
@given(wide_families().map(family_to_text) | member_texts)
def test_text_reader_matches_per_token_reference(text):
    assert text_outcome(parse_members_text, text) == text_outcome(naive_members_text, text)


@pytest.mark.parametrize("members", [
    [[0], [True]], [[1.0]], [[-1]], [[0, 64]], [[1, 0, 1]], [[0], [1], [0]],
    [[0], 0], [[0, [1]]], [[0], [[1]]], [[], []], [[2, 0, 63], [1], []],
], ids=["true", "float", "negative", "past-capacity", "repeated-id",
        "repeated-member", "non-list-member", "nested-list", "nested-member",
        "two-empty-members", "well-formed-unsorted"])
@pytest.mark.parametrize("m", [0, 3, 64])
def test_reader_matches_per_id_reference_on_edge_documents(members, m):
    doc = {"universe_size": m, "members": members}
    assert read_outcome(family_from_json_dict, doc) == read_outcome(naive_read, doc)


# Edits planted into an honest chain, transversal or family before the
# verifiers and the audit run.  "none" keeps the honest witnesses, and
# "unused-id" keeps them honest on g over one more element, which no member
# holds.
WITNESS_EDITS = ["none", "none", "unused-id", "chain", "pair", "pair-key", "u_hat",
                 "pattern", "pattern-key", "m_sets", "tops", "freq"]


def planted(g, data):
    """A fresh copy of g with an honest chain and transversal, one of the
    two, or the copy's cached m_sets, tops or freq, edited as drawn.

    A mask is edited by flipping one bit, up to one id past the universe,
    or replaced by a member of g, so that it stays close to an honest one.
    """
    edit = data.draw(st.sampled_from(WITNESS_EDITS))
    if edit == "unused-id":
        g = SetFamily(g.universe_size + 1, g.members)
    w = falgas_ravry_chain(g) if g.n else ChainWitness(chain=(), pair_witnesses={})
    tr = minimal_transversal(g)
    h = SetFamily(g.universe_size, g.members)

    def edited(mask, width=g.universe_size + 1):
        if g.members and data.draw(st.booleans()):
            return data.draw(st.sampled_from(g.members))
        return mask ^ 1 << data.draw(st.integers(0, width - 1))

    pw, pb = dict(w.pair_witnesses), dict(tr.pb_family)
    if edit == "chain" and w.chain:
        chain = list(w.chain)
        i = data.draw(st.integers(0, len(chain) - 1))
        chain[i] = edited(chain[i])
        w = replace(w, chain=tuple(chain))
    elif edit == "pair" and pw:
        key = data.draw(st.sampled_from(sorted(pw)))
        pw[key] = edited(pw[key])
        w = replace(w, pair_witnesses=pw)
    elif edit == "pair-key" and pw:
        i, j = data.draw(st.sampled_from(sorted(pw)))
        witness = pw.pop((i, j))
        if data.draw(st.booleans()):
            pw[j, i] = witness
        w = replace(w, pair_witnesses=pw)
    elif edit == "u_hat":
        tr = replace(tr, u_hat=edited(tr.u_hat))
    elif edit == "pattern" and pb:
        key = data.draw(st.sampled_from(sorted(pb)))
        pb[key] = edited(pb[key])
        tr = replace(tr, pb_family=pb)
    elif edit == "pattern-key" and pb:
        key = data.draw(st.sampled_from(sorted(pb)))
        member = pb.pop(key)
        if data.draw(st.booleans()):
            pb[edited(key)] = member
        tr = replace(tr, pb_family=pb)
    elif edit in ("m_sets", "tops", "freq") and g.universe_size:
        values = list(getattr(g, edit))
        i = data.draw(st.integers(0, len(values) - 1))
        if edit == "m_sets":
            values[i] ^= 1 << data.draw(st.integers(0, g.universe_size - 1))
        elif edit == "tops" and g.n:
            values[i] ^= 1 << data.draw(st.integers(0, g.n - 1))
        elif edit == "freq":
            values[i] = data.draw(st.integers(0, g.n))
        h.__dict__[edit] = tuple(values)
    return h, w, tr


@settings(max_examples=250, deadline=None)
@given(families(max_m=7), st.data())
def test_verifiers_and_audit_match_member_loops(f, data):
    h, w, tr = planted(separating_union_closed(f), data)
    assert verify_chain_witness(h, w) == naive_verify_chain_witness(h, w)
    assert verify_transversal(h, tr) == naive_verify_transversal(h, tr)
    assert counting_audit(h, tr) == naive_counting_audit(h, tr)


# Faults planted into a corpus for the staged battery and its reference.
# Each planted fault is keyed by the family's value, so a family decoded
# from its line gets it too; "lemma" plants zero frequencies on a family
# given as an object, and "bad-line" puts a malformed line in its place.
BATTERY_FAULTS = ["none"] * 4 + [
    "chain", "transversal", "both", "audit", "witnessless", "lemma", "raise-gap",
    "raise-frankl", "raise-chain", "raise-transversal", "raise-alarm", "bad-line"]
BAD_LINES = ["{not json}", '{"members":[[0]', '{"members":[[0,0]],"universe_size":1}']


@st.composite
def battery_corpora(draw):
    """A corpus of families and NDJSON lines, rejected, non-separating and
    separating ones, with the fault planted on each family value."""
    family = families(max_m=5)
    family |= family.map(separating_union_closed)
    entries = draw(st.lists(st.tuples(family, st.sampled_from(BATTERY_FAULTS), st.booleans()),
                            max_size=10))
    corpus, faults = [], {}
    for lineno, (f, fault, as_line) in enumerate(entries, start=1):
        if fault == "bad-line":
            corpus.append(_Line(lineno, draw(st.sampled_from(BAD_LINES))))
            continue
        faults.setdefault(f, fault)
        if as_line:
            corpus.append(_Line(lineno, family_to_ndjson(f)))
        else:
            if fault == "lemma":
                f.__dict__["freq"] = (0,) * f.universe_size
            corpus.append(f)
    return corpus, faults


def plant_battery_faults(mp, faults):
    """Make the battery's functions in search, and the witness search that
    applicability runs in bounds, plant each family's fault."""
    def raising(kind, real):
        def checked(f, *args):
            if faults.get(f) == kind:
                raise ContradictionError(f"{kind} planted on {family_label(f)}")
            return real(f, *args)
        return checked

    def no_witnesses(f):
        if faults.get(f) in ("witnessless", "raise-alarm"):
            return []
        return frankl_witnesses(f)

    def short_chain(f):
        w = falgas_ravry_chain(f)
        return replace(w, chain=w.chain[:-1]) if faults.get(f) in ("chain", "both") else w

    def no_patterns(f):
        tr = minimal_transversal(f)
        return replace(tr, pb_family={}) if faults.get(f) in ("transversal", "both") else tr

    def failed_inequality(f, tr):
        audit = counting_audit(f, tr)
        if faults.get(f) == "audit":
            audit.inequality_holds = False
        return audit

    mp.setattr(search, "find_union_gap", raising("raise-gap", find_union_gap))
    mp.setattr(search, "frankl_witnesses", raising("raise-frankl", no_witnesses))
    mp.setattr(bounds, "frankl_witnesses", no_witnesses)
    mp.setattr(search, "falgas_ravry_chain", raising("raise-chain", short_chain))
    mp.setattr(search, "minimal_transversal", raising("raise-transversal", no_patterns))
    mp.setattr(search, "counting_audit", failed_inequality)
    mp.setattr(search, "applicability", raising("raise-alarm", bounds.applicability))


def battery_outcome(verify, corpus):
    """The report, or the type, message and line of the exception raised."""
    try:
        return verify(corpus)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


@settings(max_examples=150, deadline=None)
@given(battery_corpora())
def test_staged_battery_matches_family_by_family_sweep(case):
    corpus, faults = case
    with pytest.MonkeyPatch.context() as mp:
        plant_battery_faults(mp, faults)
        expected = battery_outcome(naive_verify_batch, corpus)
        assert battery_outcome(search._verify_batch, corpus) == expected
        # Batches of about 8 members, run serially, then in children.
        mp.setattr(search, "BATCH_MEMBERS", 8)
        mp.setattr(search, "_worker_count", lambda: 1)
        assert battery_outcome(corpus_verify, corpus) == expected
        mp.setattr(search, "_worker_count", lambda: 2)
        assert battery_outcome(corpus_verify, corpus) == expected
