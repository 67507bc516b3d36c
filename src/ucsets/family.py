"""Bit-mask set families over small universes and their basic operations.

A family is a deduplicated tuple of member sets sorted ascending by mask
value, each member a bit mask over element ids 0..universe_size-1.  The
universe is capped at 64 elements so every member fits in one machine word
and all operations below are plain integer arithmetic.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Iterable, Sequence

from .errors import CapacityError, DomainError

MAX_UNIVERSE = 64
# Member budget of a union closure: folding in one generator at most
# doubles the closure, so the check runs before the set grows.
MAX_MEMBERS = 1 << 20


def mask_of(elements: Iterable[int]) -> int:
    """Pack element ids into a bit mask; ids must be of type int exactly."""
    mask = 0
    for x in elements:
        if type(x) is not int:
            raise TypeError(f"element ids must be integers, got {x!r}")
        if x < 0:
            raise DomainError(f"negative element id {x}")
        if x >= MAX_UNIVERSE:
            raise CapacityError(
                f"element id {x} exceeds the {MAX_UNIVERSE}-element capacity")
        mask |= 1 << x
    return mask


# Both byte tables are built on first use: building them at import made
# a fresh `import ucsets.cli` about 3 ms slower.
@lru_cache(maxsize=1)
def _byte_ids() -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Table [k][b]: the ascending ids 8k..8k+7 set in byte value b.

    Built by doubling: appending id x to each of the first 2^(x-8k)
    entries gives the next 2^(x-8k) entries.
    """
    tables = []
    for k in range(MAX_UNIVERSE // 8):
        table: list[tuple[int, ...]] = [()]
        for x in range(8 * k, 8 * k + 8):
            table += [ids + (x,) for ids in table]
        tables.append(tuple(table))
    return tuple(tables)


@lru_cache(maxsize=1)
def _byte_text() -> tuple[tuple[str, ...], ...]:
    """Table [k][b]: the ids of _byte_ids()[k][b] as text, each followed by
    a comma ("" for byte 0), so the fragments of a mask's bytes concatenate."""
    return tuple(tuple("".join(f"{x}," for x in ids) for ids in table)
                 for table in _byte_ids())


def elements_of(mask: int) -> list[int]:
    """Unpack a non-negative bit mask into an ascending list of element ids.

    The low 64 bits are unpacked a byte at a time, lowest byte first, from
    a table of the ids each byte value holds (Warren, Hacker's Delight,
    ch. 5), stopping once no set bit is left.  Higher bits, which no family
    member has, are unpacked the same way 64 bits at a time, so every mask
    gets the exact answer.  A negative mask, whose shifts never reach 0,
    raises DomainError.
    """
    out: list[int] = []
    for ids in _byte_ids():
        if not mask:
            return out
        out += ids[mask & 0xFF]
        mask >>= 8
    if mask:
        if mask < 0:
            raise DomainError("masks must be non-negative")
        out += [x + MAX_UNIVERSE for x in elements_of(mask)]
    return out


def elements_text(mask: int) -> str:
    """The ascending element ids of a mask, comma-joined: "0,3,9" ("" for 0).

    For single masks; families render all their members at once through
    _member_texts.
    """
    return ",".join(map(str, elements_of(mask)))


@dataclass(frozen=True)
class SetFamily:
    """A family of subsets of {0, ..., universe_size-1}, one mask per member.

    `covered_mask`, the union of the members, is set by the validation loop.
    Each part of the derived data below is computed once, on first use, and
    cached on the instance; equality, hashing and repr use the two fields
    alone.
    """

    universe_size: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.universe_size <= MAX_UNIVERSE:
            raise CapacityError(
                f"universe size {self.universe_size} outside 0..{MAX_UNIVERSE}")
        full = (1 << self.universe_size) - 1
        prev = -1
        cov = 0
        for mask in self.members:
            if mask <= prev:
                raise ValueError("members must be distinct masks in ascending order")
            if mask & ~full:
                raise ValueError(f"member {mask:#x} is not a subset of the universe")
            prev = mask
            cov |= mask
        # A plain attribute, not a field, so equality, hashing and repr
        # ignore it; a cached_property cost more than this loop.
        object.__setattr__(self, "covered_mask", cov)

    @property
    def n(self) -> int:
        return len(self.members)

    @property
    def universe_mask(self) -> int:
        return (1 << self.universe_size) - 1

    @property
    def covers_universe(self) -> bool:
        """True when every element id occurs in at least one member."""
        return self.covered_mask == self.universe_mask

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """columns[x] has bit i set when member i contains element x."""
        return _bit_columns(self.members, self.universe_size)

    @cached_property
    def freq(self) -> tuple[int, ...]:
        """Number of members containing each element (column popcounts)."""
        return tuple(col.bit_count() for col in self.columns)

    @cached_property
    def order(self) -> tuple[int, ...]:
        """Elements sorted by frequency, ties broken by lower id first."""
        freq = self.freq
        return tuple(sorted(range(len(freq)), key=lambda x: (freq[x], x)))

    @cached_property
    def tops(self) -> tuple[int, ...]:
        """Index mask of the members whose highest-ranked element is x."""
        tops = [0] * len(self.columns)
        untopped = (1 << self.n) - 1
        for x in reversed(self.order):
            tops[x] = self.columns[x] & untopped
            untopped &= ~self.columns[x]
        return tuple(tops)

    @cached_property
    def m_sets(self) -> tuple[int, ...]:
        """Per rank r in 1..m, the union of the members omitting the element
        order[r-1]; entry 0 is the covered elements.

        The members omitting x cover y iff y's column is not inside x's.
        """
        out = [sum(1 << y for y, col in enumerate(self.columns) if col)]
        for x in self.order:
            outside = ~self.columns[x]
            out.append(sum(1 << y for y, col in enumerate(self.columns)
                           if col & outside))
        return tuple(out)


def make_family(sets: Iterable[Iterable[int]]) -> SetFamily:
    """Build a family from collections of element ids.

    Duplicates collapse, members are stored sorted ascending by mask value,
    and the universe size is one past the largest element id used (zero when
    no elements occur at all).
    """
    return family_from_masks(mask_of(s) for s in sets)


def family_from_masks(masks: Iterable[int],
                      universe_size: int | None = None) -> SetFamily:
    """Build a family from raw masks.

    Without an explicit universe_size the universe is derived from the
    largest element used.  A larger explicit universe is accepted; its
    trailing ids occur in no member.
    """
    ms = sorted(set(masks))
    if ms and ms[0] < 0:
        raise DomainError("masks must be non-negative")
    used = ms[-1].bit_length() if ms else 0
    if used > MAX_UNIVERSE:
        raise CapacityError(f"members use more than {MAX_UNIVERSE} elements")
    if universe_size is None:
        universe_size = used
    elif universe_size < used:
        raise ValueError(
            f"universe_size {universe_size} too small for members using {used} elements")
    return SetFamily(universe_size, tuple(ms))


def set_label(mask: int) -> str:
    """One member as a label: ``{0,1}``, and ``{}`` for the empty set."""
    return "{" + elements_text(mask) + "}"


def family_label(f: SetFamily) -> str:
    """Compact one-line rendering, e.g. ``{{2},{1,2},{0,1,2}}``."""
    return "{{" + "},{".join(_member_texts(f)) + "}}" if f.members else "{}"


def is_union_closed(f: SetFamily) -> bool:
    """True when the union of every two members is again a member."""
    return join_irreducibles(f) is not None


def join_irreducibles(f: SetFamily) -> list[int] | None:
    """The join-irreducible members of f in ascending order, or None once
    a union falls outside f.

    A member is irreducible when it is not the union of the members strictly
    below it; a member empty set counts as one, as it does among generators,
    so a union-closed f is the closure of at most g masks iff it has at most
    g irreducibles.  In ascending order every member below b comes before b,
    so b is irreducible iff it is not yet in the union closure of the
    irreducibles found so far; it is then joined to that closure, which must
    stay inside f.  That holds throughout iff f is union-closed, since every
    member is a union of irreducibles.  Cost: n lookups per irreducible.
    """
    present = set(f.members)
    closed: set[int] = set()
    irreducibles = []
    for b in f.members:
        if b in closed:
            continue
        grown = {b | c for c in closed}
        if not grown <= present:
            return None
        closed |= grown
        closed.add(b)
        irreducibles.append(b)
    return irreducibles


def find_union_gap(f: SetFamily) -> tuple[int, int] | None:
    """First pair of members (in canonical order) whose union is missing.

    join_irreducibles decides; only a family that fails gets the pairwise scan.
    """
    if join_irreducibles(f) is not None:
        return None
    members = f.members
    present = set(members)
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if a | b not in present:
                return a, b
    return None


def closure_of_masks(masks: Iterable[int], saturated: int = 0) -> list[int]:
    """Union-closure of the given masks, sorted ascending.

    Incremental: if C is already union-closed, then C + g closes as
    C | {g} | {g|c for c in C}, so one pass over the generators suffices.
    Raises CapacityError before a fold could take the closure past
    MAX_MEMBERS members.  When every mask is a non-empty subset of an
    s-element set, saturated = 2^s - 1 stops reading masks once the closure
    holds all of them, since no later mask could change it.
    """
    closed: set[int] = set()
    for g in masks:
        if g in closed:
            continue
        if 2 * len(closed) + 1 > MAX_MEMBERS:
            raise CapacityError(
                f"union closure could exceed the {MAX_MEMBERS}-member budget")
        closed |= {g | c for c in closed}
        closed.add(g)
        if len(closed) == saturated:
            break
    return sorted(closed)


def union_closure(f: SetFamily) -> SetFamily:
    """Smallest union-closed family containing f, over the same universe."""
    return SetFamily(f.universe_size, tuple(closure_of_masks(f.members)))


# _BIT_DIGITS[b] maps a byte to the ASCII digit of its bit b: bytes 0..255
# run through bit b as 2**b zeros, 2**b ones, and so on.
_BIT_DIGITS = tuple((b"0" * (1 << b) + b"1" * (1 << b)) * (128 >> b) for b in range(8))


def _bit_columns(members: tuple[int, ...], universe_size: int) -> tuple[int, ...]:
    """Transpose members into one n-bit column per element.

    Bit i of column x is set when member i contains x.  Members are packed
    as 8 little-endian bytes each, so byte plane k (byte k of every member,
    last member first) holds elements 8k..8k+7; translating the plane to
    the ASCII digits of one bit and reading them in base 2 yields a whole
    column without a Python loop over the incidences.
    """
    if not members:
        return (0,) * universe_size
    packed = struct.pack(f"<{len(members)}Q", *members)
    columns = []
    for k in range((universe_size + 7) // 8):
        plane = packed[k::8][::-1]
        for b in range(min(8, universe_size - 8 * k)):
            columns.append(int(plane.translate(_BIT_DIGITS[b]), 2))
    return tuple(columns)


def _member_texts(f: SetFamily) -> list[str]:
    """elements_text of every member, in member order, without a Python
    loop over the members.

    The members are packed as in _bit_columns, and byte plane k maps
    through the text table of ids 8k..8k+7.  Zipping the planes gives each
    member its fragments, which concatenate to its ids with one trailing
    comma to strip.  Only the planes up to the highest id any member holds
    are read; below id 8 the masks index the first table directly.
    """
    members = f.members
    tables = _byte_text()
    if f.covered_mask <= 0xFF:
        texts = map(tables[0].__getitem__, members)
    else:
        packed = struct.pack(f"<{len(members)}Q", *members)
        planes = tables[:(f.covered_mask.bit_length() + 7) // 8]
        texts = map("".join, zip(*[map(table.__getitem__, packed[k::8])
                                   for k, table in enumerate(planes)]))
    return list(map(str.rstrip, texts, repeat(",")))


def element_frequencies(f: SetFamily) -> list[int]:
    """Number of members containing each element, indexed by element id."""
    return list(f.freq)


@dataclass(frozen=True)
class FrequencyProfile:
    """Element frequencies plus the increasing-frequency labeling.

    order[r] is the element of rank r: elements sorted by frequency, ties
    broken by lower id first.  The last entry is a most frequent element.
    """

    freq: dict[int, int]
    order: tuple[int, ...]


def frequency_profile(f: SetFamily) -> FrequencyProfile:
    return FrequencyProfile(dict(enumerate(f.freq)), f.order)


def frankl_witnesses(f: SetFamily) -> list[int]:
    """Element ids lying in at least half of the members.

    The union-closed conjecture asserts this list is non-empty for every
    union-closed family containing a non-empty set.
    """
    if f.n == 0:
        raise DomainError("empty family has no witnesses")
    return [x for x, count in enumerate(f.freq) if 2 * count >= f.n]


def column_signatures(f: SetFamily) -> list[int]:
    """Per element, the set of member indices containing it, as a bit mask."""
    return list(f.columns)


def is_separating(f: SetFamily) -> bool:
    """True when every two distinct elements are split by some member."""
    return find_unseparated_pair(f) is None


def find_unseparated_pair(f: SetFamily) -> tuple[int, int] | None:
    """First pair of elements whose membership columns coincide."""
    seen: dict[int, int] = {}
    for x, sig in enumerate(f.columns):
        if sig in seen:
            return seen[sig], x
        seen[sig] = x
    return None


def separating_quotient(f: SetFamily) -> tuple[SetFamily, tuple[tuple[int, ...], ...]]:
    """Merge elements with identical membership columns.

    Two elements with the same column are contained in exactly the same
    members, so every member is a union of whole classes and the quotient
    map is injective on members: the member count is preserved, as are
    union-closedness and (trivially) separation.  Classes are renumbered by
    their lowest id, ascending; elements occurring in no member are dropped.

    Returns the quotient family and the class partition, where class j of
    the partition is the preimage of the new element j.
    """
    groups: dict[int, list[int]] = {}
    for x, sig in enumerate(f.columns):
        if sig:
            groups.setdefault(sig, []).append(x)
    classes = sorted(groups.values())
    reps = sum(1 << cls[0] for cls in classes)
    projected = tuple(sorted(mask & reps for mask in f.members))
    fam, _ = drop_unused_elements(SetFamily(f.universe_size, projected))
    return fam, tuple(tuple(cls) for cls in classes)


def relabel_mask(mask: int, perm: Sequence[int]) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def drop_unused_elements(f: SetFamily) -> tuple[SetFamily, tuple[int, ...]]:
    """Restrict the universe to the elements that occur in some member.

    Returns the compressed family and the kept old ids; new id j corresponds
    to the j-th kept id.  Families that already cover their universe come
    back unchanged.
    """
    covered = f.covered_mask
    if covered == f.universe_mask:
        return f, tuple(range(f.universe_size))
    kept = elements_of(covered)
    pos = [-1] * f.universe_size
    for new, old in enumerate(kept):
        pos[old] = new
    members = tuple(sorted(relabel_mask(mask, pos) for mask in f.members))
    return SetFamily(len(kept), members), tuple(kept)
