"""Fast family kernels against naive reference versions.

The package derives frequencies, separation, m-sets and witnesses from
bit-sliced columns, checks union-closure through join-irreducibles and
builds the exhaustive corpus by extension.  The loops below are the direct
definitions; property tests check that both agree on random families with
up to 8 elements, union-closed or not, and the exhaustive streams are
compared with a scan over every subfamily code for m <= 4.  Generator mode
filters that stream by join-irreducible count; its reference closes every
small set of masks.  Member masks are unpacked and written a byte at a
time; the per-bit loop and the per-id joins are their references, on masks
of up to 130 bits and families over up to 64 elements.  Family documents
are decoded a family at a time; a per-id reader is their reference, on
well-formed and malformed documents alike.
"""

import copy
import itertools
import json
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucsets import (
    SetFamily,
    canonical_form,
    corpus_verify,
    drop_unused_elements,
    enumerate_union_closed,
    family_from_masks,
    find_union_gap,
    find_unseparated_pair,
    is_separating,
    is_union_closed,
    make_family,
    separating_quotient,
    union_closure,
)
from ucsets.errors import FamilyParseError
from ucsets.family import (
    _member_texts,
    closure_of_masks,
    column_signatures,
    element_frequencies,
    elements_of,
    elements_text,
    family_label,
    frequency_profile,
    join_irreducibles,
)
from ucsets.formats import (
    family_from_json_dict,
    family_to_json_dict,
    family_to_ndjson,
    family_to_text,
)
from ucsets.witnesses import (
    a_sets,
    falgas_ravry_chain,
    m_sets,
    max_index_elements,
    minimal_transversal,
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


@pytest.mark.parametrize("family_filter", sorted(NAIVE_FILTERS))
@pytest.mark.parametrize("m", range(5))
def test_exhaustive_stream_matches_code_scan(m, family_filter):
    keep = NAIVE_FILTERS[family_filter]
    expected = [f for f in naive_exhaustive(m) if keep(f, m)]
    got = list(enumerate_union_closed(m, family_filter=family_filter))
    assert [f.members for f in got] == [f.members for f in expected]
    assert got == expected


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
                out.add(canonical_form(fam))
    return out


GENERATOR_CASES = ([(m, g) for m in range(4) for g in [*range((1 << m) + 2), None]]
                   + [(4, g) for g in range(5)])


@pytest.mark.parametrize("family_filter", sorted(NAIVE_FILTERS))
def test_generator_classes_match_closed_mask_sets(family_filter):
    for m, g in GENERATOR_CASES:
        got = list(enumerate_union_closed(m, mode="generators", family_filter=family_filter,
                                          max_generators=g))
        assert len(got) == len(set(got))
        assert set(got) == naive_generators(m, family_filter, g), (m, g)


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
