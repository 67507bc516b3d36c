"""Parsing and serialization for families and reports.

Two interchange formats for families.  Text: one member per line, element
ids separated by commas or whitespace, a lone "-" for the empty set, "#"
comments, blank lines ignored.  JSON: {"universe_size": m, "members":
[[ids], ...]}.  Serialization always emits members in canonical ascending
mask order with element ids sorted, so output is bit-identical across
platforms; NDJSON corpus lines come from family_to_ndjson alone, and
family_from_ndjson reads lines of that exact form back.  Reports
serialize with their field names intact; masks become sorted id arrays,
map keys become strings, and real values are rounded to 12 significant
digits before encoding.
"""

from __future__ import annotations

import json
from dataclasses import fields
from functools import lru_cache, reduce
from itertools import chain
from operator import or_
from typing import Any

from .errors import CapacityError, DomainError, FamilyParseError, UnfinishedJSONError
from .family import (
    MAX_UNIVERSE,
    SetFamily,
    _byte_member_texts,
    _member_texts,
    elements_of,
    elements_text,
    family_from_masks,
    mask_of,
)
from .search import CorpusReport
from .witnesses import (
    ChainWitness,
    TransversalReport,
    a_sets,
    counting_audit,
    max_index_elements,
)

FAMILY_FIELDS = frozenset({"universe_size", "members"})
M_SETS_DEFINITION = ("m_sets[i] is the union of all members NOT containing "
                     "the rank-i element; m_sets[0] is the universe")


def parse_members_text(text: str) -> list[int]:
    """Parse the text format into raw member masks, one per member line.

    Duplicates are preserved in file order so callers can warn about them;
    build a family with make-family semantics via parse_family_text.  A
    line's ids are converted and ORed by builtins; only a line that fails
    goes through _checked_mask, which names its first bad id.
    """
    masks: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "-":
            masks.append(0)
            continue
        tokens = line.replace(",", " ").split()
        try:
            masks.append(reduce(or_, map(_id_bit, map(int, tokens)), 0))
        except (ValueError, KeyError):  # not an int, or no id in 0..63
            masks.append(_checked_mask(tokens, lineno))
    return masks


def _checked_mask(tokens: list[str], lineno: int) -> int:
    """The mask of one line's id tokens, one id at a time; raises
    FamilyParseError naming the first bad id and the line."""
    try:
        return mask_of(_element_id(token, lineno) for token in tokens)
    except (DomainError, CapacityError) as exc:
        raise FamilyParseError(str(exc), line=lineno) from None


def _element_id(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise FamilyParseError(f"invalid element id {token!r}", line=lineno) from None


def parse_family_text(text: str) -> SetFamily:
    return family_from_masks(parse_members_text(text))


def family_to_text(f: SetFamily) -> str:
    """Render the text format; padding is not representable and is dropped."""
    texts = _member_texts(f)
    if f.members[:1] == (0,):  # the empty member, always first
        texts[0] = "-"
    return "\n".join(texts) + "\n" if texts else ""


def family_to_json_dict(f: SetFamily) -> dict[str, Any]:
    return {
        "universe_size": f.universe_size,
        "members": [elements_of(mask) for mask in f.members],
    }


def family_to_ndjson(f: SetFamily) -> str:
    """The family as one compact JSON line, sorted keys and no spaces.

    Byte-identical to the compact sorted-key JSON encoding of
    family_to_json_dict(f), but written straight from the per-byte id text
    of the members instead of through the json module.
    """
    members = "[" + "],[".join(_member_texts(f)) + "]" if f.members else ""
    return f'{{"members":[{members}],"universe_size":{f.universe_size}}}'


# Each element id's bit by the id's text, and each universe size by its
# text: only the writer's spelling is a key, so "07", "1_0", "-0" and
# non-ASCII digits are not.  The empty text is the empty member's.
_ID_TEXT_BIT = {"": 0, **{str(x): 1 << x for x in range(MAX_UNIVERSE)}}.__getitem__
_SIZE_TEXT = {str(m): m for m in range(MAX_UNIVERSE + 1)}.get


@lru_cache(maxsize=1)
def _byte_member_masks() -> dict[str, int]:
    """Each mask below 256 by its text as the writer spells it."""
    return {text: mask for mask, text in enumerate(_byte_member_texts())}


def family_from_ndjson(line: str) -> SetFamily | None:
    """The family of a line in family_to_ndjson's exact form, else None.

    The members text is split on "],[".  Over at most 8 elements each row
    is looked up whole in the table of the writer's 256 member texts, so
    its ids are distinct and in the writer's spelling.  A line with a row
    not in that table, or over more elements, has its rows
    split on "," and each mask is the sum of its ids' bits, looked up by
    their text; no id goes through int().  The id count is then the comma
    count plus one, less the first member when it is empty, and it equals
    the masks' total popcount exactly when every id is distinct within its
    member and no id text is empty.  Any other line (spaces, another key
    order, an unknown id, a repeated id or member, members out of order)
    gives None, and the caller decodes it with decode_json and
    family_from_json_dict, which name the fault.
    """
    head, _, tail = line.rpartition('],"universe_size":')
    m = _SIZE_TEXT(tail[:-1]) if tail[-1:] == "}" else None
    if m is None or not head.startswith('{"members":['):
        return None
    masks: list[int] | None = []
    if head != '{"members":[':  # "[ids],[ids],..." follows
        if head[12] != "[" or head[-1] != "]":
            return None
        # One slice of the members text: each copy of it would add the
        # line's length to the peak memory of the decode.
        rows = head[13:-1].split("],[")
        masks = None
        if m <= 8:
            try:
                masks = list(map(_byte_member_masks().__getitem__, rows))
            except KeyError:  # a row in another spelling, such as "1,0"
                pass
        if masks is None:
            try:
                masks = [sum(map(_ID_TEXT_BIT, row.split(","))) for row in rows]
            except KeyError:
                return None
            if head.count(",") + (rows[0] != "") != sum(map(int.bit_count, masks)):
                return None
    try:
        return SetFamily(m, tuple(masks))
    except ValueError:  # members out of order, repeated or past the universe
        return None


# The bit of each element id; a KeyError is an id out of range.
_id_bit = {x: 1 << x for x in range(MAX_UNIVERSE)}.__getitem__
_LIST_TYPE = frozenset({list})
_INT_TYPE = frozenset({int})


def family_from_json_dict(doc: Any) -> SetFamily:
    """Build a family from the JSON object form; padding is respected and,
    as in the bundled schema, a repeated member or member id is refused.

    A well-formed corpus family is decoded a family at a time by builtins;
    anything else goes through _checked_masks, which names the first fault.
    """
    if not isinstance(doc, dict):
        raise FamilyParseError("family document must be a JSON object")
    if doc.keys() != FAMILY_FIELDS:
        extra = set(doc) - FAMILY_FIELDS
        if extra:
            raise FamilyParseError(f"unknown family fields {sorted(extra)}")
        raise FamilyParseError(f"missing family fields {sorted(FAMILY_FIELDS - set(doc))}")
    m = doc["universe_size"]
    members = doc["members"]
    if not isinstance(m, int) or isinstance(m, bool):
        raise FamilyParseError("universe_size must be an integer")
    if not isinstance(members, list):
        raise FamilyParseError("members must be an array of arrays")
    masks = _fast_masks(members)
    if masks is None:
        masks = _checked_masks(members)
    else:
        try:  # members as a serializer writes them: distinct and ascending
            return SetFamily(m, tuple(masks))
        except ValueError:
            pass
    try:
        f = family_from_masks(masks, m)
    except ValueError as exc:  # CapacityError is one too
        raise FamilyParseError(str(exc)) from None
    if f.n != len(masks):  # family_from_masks collapsed a repeat
        first: dict[int, int] = {}
        j = next(j for j, mask in enumerate(masks) if first.setdefault(mask, j) != j)
        raise FamilyParseError(f"members[{j}] repeats members[{first[masks[j]]}]")
    return f


def _fast_masks(members: list[Any]) -> list[int] | None:
    """The member masks when every member is a list of distinct ids of type
    int in 0..63, else None.

    Each mask is the sum of its ids' bits.  Ids repeated within a member
    would carry into other bits, so the masks hold fewer bits in all than
    there are ids exactly when some member repeats one.
    """
    if not (_LIST_TYPE.issuperset(map(type, members))
            and _INT_TYPE.issuperset(map(type, chain.from_iterable(members)))):
        return None
    try:  # a list: a tuple grown from a map raised verify's peak RSS by 1 MB
        masks = [sum(map(_id_bit, ids)) for ids in members]
    except KeyError:
        return None
    if sum(map(len, members)) != sum(map(int.bit_count, masks)):
        return None
    return masks


def _checked_masks(members: list[Any]) -> list[int]:
    """The member masks, one member at a time; raises FamilyParseError
    naming the first malformed member."""
    masks = []
    for i, ids in enumerate(members):
        if not isinstance(ids, list):
            raise FamilyParseError(f"members[{i}] must be an array of integers")
        try:
            mask = mask_of(ids)
        except TypeError:
            raise FamilyParseError(f"members[{i}] must be an array of integers") from None
        except DomainError:
            raise FamilyParseError(
                f"members[{i}] contains a negative element id") from None
        except CapacityError:
            raise FamilyParseError(
                f"members[{i}] exceeds the {MAX_UNIVERSE}-element capacity") from None
        if len(ids) != mask.bit_count():  # at most 64 distinct ids, so ids[:j] is short
            x = next(x for j, x in enumerate(ids) if x in ids[:j])
            raise FamilyParseError(f"members[{i}] repeats element id {x}")
        masks.append(mask)
    return masks


def decode_json(text: str, line: int | None = None) -> Any:
    """json.loads with every decoding failure raised as FamilyParseError.

    line, when given, is the input line the text came from (NDJSON);
    otherwise the decoder's own line number is reported.  A text that ends
    before its value is complete raises UnfinishedJSONError.  Nesting too
    deep for the decoder's recursion and integers past Python's digit limit
    are parse errors as well.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        error = UnfinishedJSONError if exc.pos == len(text) else FamilyParseError
        if line is None:
            raise error(f"invalid JSON: {exc}", line=exc.lineno) from None
        raise error(f"invalid JSON: {exc.msg}", line=line) from None
    except RecursionError:
        raise FamilyParseError("invalid JSON: nested too deeply", line=line) from None
    except ValueError as exc:
        raise FamilyParseError(f"invalid JSON: {exc}", line=line) from None


def parse_family_json(text: str) -> SetFamily:
    return family_from_json_dict(decode_json(text))


def round12(x: float) -> float:
    """Round to 12 significant digits; the canonical real-value rendering."""
    return float(f"{x:.12g}")


def _id_key_map(d: dict[int, int]) -> dict[str, list[int]]:
    return {str(x): elements_of(mask) for x, mask in sorted(d.items())}


def chain_to_json(f: SetFamily, w: ChainWitness) -> dict[str, Any]:
    return {
        "order": list(f.order),
        "chain": [elements_of(entry) for entry in w.chain],
        "pair_witnesses": {
            f"{i},{j}": elements_of(mask)
            for (i, j), mask in sorted(w.pair_witnesses.items())
        },
        "m_sets": [elements_of(entry) for entry in f.m_sets],
        "m_sets_definition": M_SETS_DEFINITION,
        "empty_set_member": f.members[:1] == (0,),
    }


def transversal_to_json(f: SetFamily, tr: TransversalReport) -> dict[str, Any]:
    return {
        "order": list(f.order),
        "tilde_u": elements_of(max_index_elements(f)),
        "a_sets": _id_key_map(a_sets(f)),
        "u_hat": elements_of(tr.u_hat),
        "k": tr.u_hat.bit_count(),
        "singleton_witnesses": _id_key_map(
            {x: tr.pb_family[1 << x] for x in elements_of(tr.u_hat)}),
        "pb_family": {
            elements_text(b): elements_of(p)
            for b, p in sorted(tr.pb_family.items())
        },
        "empty_set_member": f.members[:1] == (0,),
        "full_sets_not_in_p": counting_audit(f, tr).full_extra,
    }


def _plain(value: Any) -> Any:
    if type(value) is float:
        return round12(value)
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def report_to_json(rep: Any) -> dict[str, Any]:
    """A report dataclass as a document keyed by its field names.

    Floats are rounded to 12 significant digits, map keys become strings
    and tuples become arrays; everything else is kept as it is.
    """
    return {f.name: _plain(getattr(rep, f.name)) for f in fields(rep)}


def corpus_to_json(rep: CorpusReport) -> dict[str, Any]:
    return {**report_to_json(rep), "ok": rep.ok}


def to_json(doc: Any) -> str:
    """Stable JSON encoding: sorted keys, no NaN, 2-space indent."""
    return json.dumps(doc, sort_keys=True, allow_nan=False, indent=2)


def load_schema(name: str) -> dict[str, Any]:
    """Load one of the bundled JSON schemas by document kind.

    Kinds: family, analyze, chain, transversal, audit, bounds, corpus,
    quotient.
    """
    from importlib import resources
    path = resources.files(__package__).joinpath("schemas").joinpath(f"{name}.json")
    return json.loads(path.read_text(encoding="utf-8"))
