import dataclasses
import re
from functools import reduce
from operator import or_

import pytest

from ucsets import (
    CapacityError,
    DomainError,
    SetFamily,
    drop_unused_elements,
    elements_of,
    family_from_masks,
    family_label,
    find_union_gap,
    find_unseparated_pair,
    frankl_witnesses,
    is_separating,
    is_union_closed,
    make_family,
    mask_of,
    separating_quotient,
    union_closure,
)
from ucsets import family
from ucsets.family import (
    closure_of_masks,
    column_signatures,
    element_frequencies,
    frequency_profile,
)

CHAIN = make_family([{2}, {1, 2}, {0, 1, 2}])
TRI = make_family([{0}, {1}, {0, 1}])


def test_mask_helpers_round_trip():
    assert mask_of([0, 2, 5]) == 0b100101
    assert elements_of(0b100101) == [0, 2, 5]
    assert mask_of([]) == 0
    assert elements_of(0) == []


@pytest.mark.parametrize("mask", [-1, -256, -(1 << 70), -(1 << 100_000)],
                         ids=["-1", "-256", "-2^70", "-2^100000"])
@pytest.mark.parametrize("unpack", [elements_of, family.elements_text, family.set_label],
                         ids=["elements_of", "elements_text", "set_label"])
def test_negative_masks_are_a_domain_error(unpack, mask):
    # Shifting a negative mask never reaches 0, so the unpacking must stop.
    with pytest.raises(DomainError, match="masks must be non-negative"):
        unpack(mask)


@pytest.mark.parametrize(("mask", "ids"), [(1 << 100_000, [100_000]),
                                           ((1 << 70_000) - 1, list(range(70_000)))],
                         ids=["2^100000", "2^70000-1"])
def test_masks_of_many_words_unpack_exactly(mask, ids):
    # One 64-bit word after another: a nested call per word past the first
    # would pass the recursion limit long before these masks end.
    assert elements_of(mask) == ids
    assert family.elements_text(mask) == ",".join(map(str, ids))


def test_mask_of_takes_only_ints():
    for bad in (True, 1.0, "1", None):
        with pytest.raises(TypeError, match="element ids must be integers"):
            mask_of([0, bad])


def test_make_family_basic():
    f = make_family([{0}, {1}, {0, 1}])
    assert f.universe_size == 2
    assert f.n == 3
    assert f.members == (0b01, 0b10, 0b11)


def test_member_count_and_union_are_not_fields():
    # n and covered_mask are plain attributes set at construction: equality,
    # hashing and repr read the two fields alone.
    f = make_family([{0}, {1}, {0, 1}])
    assert (f.n, f.covered_mask) == (3, 0b11)
    assert [field.name for field in dataclasses.fields(f)] == ["universe_size", "members"]
    assert repr(f) == "SetFamily(universe_size=2, members=(1, 2, 3))"
    assert f == SetFamily(2, (1, 2, 3)) and hash(f) == hash(SetFamily(2, (1, 2, 3)))


def test_make_family_dedup():
    f = make_family([{0}, {0}])
    assert (f.universe_size, f.n) == (1, 1)


def test_make_family_empty():
    f = make_family([])
    assert (f.universe_size, f.n) == (0, 0)


def test_make_family_capacity():
    with pytest.raises(CapacityError):
        make_family([{64}])


def test_set_family_rejects_unsorted_members():
    with pytest.raises(ValueError):
        SetFamily(2, (0b10, 0b01))
    with pytest.raises(ValueError):
        SetFamily(2, (0b01, 0b01))


def test_set_family_rejects_member_outside_universe():
    with pytest.raises(ValueError):
        SetFamily(1, (0b10,))


def test_valid_families_skip_the_checked_scan(monkeypatch):
    # The one-pass loop decides every valid family alone, at both ends of
    # the universe range and with the empty member first.
    calls = []
    real = family._checked_union
    monkeypatch.setattr(family, "_checked_union",
                        lambda *args: calls.append(args) or real(*args))
    for m, members in [(0, ()), (0, (0,)), (3, (0, 1, 6)), (64, (0, 1 << 63, (1 << 64) - 1))]:
        f = SetFamily(m, members)
        assert (f.n, f.covered_mask) == (len(members), reduce(or_, members, 0))
    assert calls == []
    with pytest.raises(ValueError):
        SetFamily(1, (0b10,))
    assert calls == [(1, (0b10,))]


@pytest.mark.parametrize("m, members", [
    (2, (0.5,)), (2.0, (1,)), (2, ("a",)), (None, ()), (2, (1, 0.5)), (2, (1, None)),
])
def test_malformed_arguments_raise_as_the_checked_scan(m, members):
    with pytest.raises((TypeError, ValueError)) as expected:
        family._checked_union(m, members)
    with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
        SetFamily(m, members)


def test_frozen_dataclass_behaviour():
    f = SetFamily(3, (0b001, 0b010))
    g = dataclasses.replace(f, members=(0b001, 0b010, 0b011))
    assert g == SetFamily(3, (1, 2, 3)) and (g.n, g.covered_mask) == (3, 0b011)
    assert dataclasses.replace(f, universe_size=2).universe_size == 2
    with pytest.raises(ValueError, match="not a subset of the universe"):
        dataclasses.replace(f, universe_size=1)
    with pytest.raises(CapacityError):
        dataclasses.replace(f, universe_size=65)
    for name in ("universe_size", "members", "n", "covered_mask"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(f, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(f, name)
    assert (f.universe_size, f.members, f.n, f.covered_mask) == (3, (1, 2), 2, 0b011)
    assert SetFamily(universe_size=3, members=(1, 2)) == f


def test_family_from_masks_padding_gate():
    padded = family_from_masks([0b1], universe_size=3)
    assert padded.universe_size == 3
    assert not padded.covers_universe
    with pytest.raises(ValueError):
        family_from_masks([0b111], universe_size=2)


def test_family_from_masks_range():
    with pytest.raises(DomainError, match=r"^masks must be non-negative$"):
        family_from_masks([0b1, -1])
    with pytest.raises(CapacityError, match=r"^members use more than 64 elements$"):
        family_from_masks([0b1, 1 << 64])
    assert family_from_masks([1 << 63]).universe_size == 64


def test_family_label():
    assert family_label(CHAIN) == "{{2},{1,2},{0,1,2}}"
    assert family_label(make_family([set()])) == "{{}}"
    assert family_label(make_family([])) == "{}"


def test_is_union_closed():
    assert is_union_closed(TRI)
    assert is_union_closed(CHAIN)
    assert not is_union_closed(make_family([{0}, {1}]))


def test_is_union_closed_runs_no_pair_scan(monkeypatch):
    def pair_scan(f):
        raise AssertionError("is_union_closed ran the pairwise scan")
    monkeypatch.setattr(family, "find_union_gap", pair_scan)
    assert not is_union_closed(make_family([{0}, {1}]))
    assert is_union_closed(TRI)


def test_find_union_gap():
    assert find_union_gap(TRI) is None
    gap = find_union_gap(make_family([{0}, {1}]))
    assert gap == (0b01, 0b10)


def test_union_closure_examples():
    assert union_closure(make_family([{0}, {1}])) == TRI
    closed = make_family([{0, 1}])
    assert union_closure(closed) == closed
    full = union_closure(make_family([{0}, {1}, {2}]))
    assert full.n == 7
    assert is_union_closed(full)


def test_union_closure_idempotent_and_preserving():
    for sets in ([{0}, {2}], [{0, 1}, {1, 2}, {3}], [set(), {0}]):
        f = make_family(sets)
        c = union_closure(f)
        assert union_closure(c) == c
        assert set(f.members) <= set(c.members)
    assert union_closure(CHAIN) == CHAIN


def test_frequency_profile_examples():
    p = frequency_profile(CHAIN)
    assert p.freq == {0: 1, 1: 2, 2: 3}
    assert p.order == (0, 1, 2)
    p = frequency_profile(TRI)
    assert p.freq == {0: 2, 1: 2}
    assert p.order == (0, 1)
    p = frequency_profile(make_family([{0}]))
    assert p.freq == {0: 1}
    assert p.order == (0,)


def test_frequency_sum_identity():
    for f in (CHAIN, TRI, make_family([set(), {0}, {1, 3}, {0, 1, 3}])):
        total = sum(element_frequencies(f))
        assert total == sum(mask.bit_count() for mask in f.members)


def test_frankl_witnesses():
    # all x with 2*freq(x) >= n; in the chain family element 1 qualifies too
    assert frankl_witnesses(CHAIN) == [1, 2]
    assert frankl_witnesses(TRI) == [0, 1]
    assert frankl_witnesses(make_family([{0}])) == [0]


def test_frankl_witnesses_empty_family():
    with pytest.raises(DomainError):
        frankl_witnesses(make_family([]))


def test_is_separating():
    assert is_separating(CHAIN)
    assert not is_separating(make_family([{0, 1}, {0, 1, 2}]))
    assert is_separating(make_family([{0}]))


def test_find_unseparated_pair():
    assert find_unseparated_pair(CHAIN) is None
    assert find_unseparated_pair(make_family([{0, 1}, {0, 1, 2}])) == (0, 1)


def test_separating_quotient_examples():
    q, classes = separating_quotient(make_family([{0, 1}, {0, 1, 2}]))
    assert q == make_family([{0}, {0, 1}])
    assert classes == ((0, 1), (2,))

    q, classes = separating_quotient(CHAIN)
    assert q == CHAIN
    assert classes == ((0,), (1,), (2,))

    q, classes = separating_quotient(make_family([{0, 1}]))
    assert q == make_family([{0}])
    assert classes == ((0, 1),)


def test_separating_quotient_properties():
    for sets in ([{0, 1}, {0, 1, 2}], [{0, 1, 2, 3}], [{0}, {0, 1}, {0, 2}, {0, 1, 2}]):
        f = union_closure(make_family(sets))
        q, _ = separating_quotient(f)
        assert q.n == f.n
        assert is_union_closed(q)
        assert is_separating(q)
        q2, _ = separating_quotient(q)
        assert q2 == q


def test_column_signatures():
    sigs = column_signatures(TRI)
    # element 0 occurs in members 0 and 2; element 1 in members 1 and 2
    assert sigs == [0b101, 0b110]


def test_drop_unused_elements():
    f = family_from_masks([0b001, 0b101], universe_size=4)
    g, kept = drop_unused_elements(f)
    assert kept == (0, 2)
    assert g == make_family([{0}, {0, 1}])
    h, kept = drop_unused_elements(CHAIN)
    assert h == CHAIN
    assert kept == (0, 1, 2)


def test_closure_member_budget(monkeypatch):
    # Six singletons close to 2**6 - 1 members; the budget is checked before
    # each fold, against the largest size that fold could reach.
    singletons = [1 << x for x in range(6)]
    monkeypatch.setattr(family, "MAX_MEMBERS", 63)
    assert len(closure_of_masks(singletons)) == 63
    monkeypatch.setattr(family, "MAX_MEMBERS", 62)
    with pytest.raises(CapacityError, match="62-member budget"):
        closure_of_masks(singletons)
    with pytest.raises(CapacityError):
        union_closure(make_family([{x} for x in range(6)]))
