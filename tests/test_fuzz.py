"""Fuzz tests of the family parsers and of `verify --input` on the same inputs.

Whatever the input, a parser returns a family (or its member masks) or
raises FamilyParseError, and the CLI exits with a code instead of letting
an exception escape: 1 for input it cannot parse, 0 or 3 once the input
parsed and the battery ran, 2 for a precondition or domain error.
"""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ucsets import FamilyParseError, SetFamily, cli, elements_of
from ucsets.cli import main
from ucsets.formats import (
    decode_json,
    family_from_json_dict,
    family_from_ndjson,
    parse_family_json,
    parse_family_text,
    parse_members_text,
)

JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=False) | st.text(max_size=8))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=20)
# Documents close to the family form, so that most of them get past the
# field checks and exercise the id and universe checks.
FAMILY_LIKE = st.fixed_dictionaries({
    "universe_size": st.integers(-2, 70) | JSON_VALUES,
    "members": st.lists(st.lists(st.integers(-2, 70), max_size=6), max_size=6)
    | JSON_VALUES,
})
DOCUMENTS = FAMILY_LIKE | JSON_VALUES
# Text close to the member-line form: ids, separators, "-" and comments.
MEMBER_TEXT = st.lists(
    st.sampled_from(["0", "1", "5", "63", "64", "-1", "-", ",", " ", "\n",
                     "#", "x", "{", "\t", "007", "1_0"]),
    max_size=20).map("".join)
TEXTS = MEMBER_TEXT | st.text(max_size=40)

# NDJSON lines near the writer's form: a family's line with some of its ids,
# members, universe size, key order, spacing or tail edited.
ID_TEXTS = (st.integers(-2, 70).map(str)
            | st.sampled_from(["01", "1_0", "\u0661", "\uff17", "", " 1", "1.0", "true"]))
SIZE_TEXTS = (st.integers(-2, 70).map(str)
              | st.sampled_from(["65", "-1", "1.0", "true", "01", " 3", "1_0"]))
EDITS = ["id", "repeat id", "drop id", "repeat member", "swap members", "empty member",
         "size"]
CANONICAL_LAYOUT = '{{"members":{0},"universe_size":{1}}}'
OTHER_LAYOUTS = [
    '{{"universe_size":{1},"members":{0}}}',
    '{{"members": {0}, "universe_size": {1}}}',
    '{{"members":{0},"universe_size":{1},"universe_size":{1}}}',
    '{{"members":{0},"members":{0},"universe_size":{1}}}',
]


@st.composite
def near_canonical_lines(draw):
    m = draw(st.integers(0, 64))
    masks = sorted(draw(st.sets(st.integers(0, (1 << m) - 1), max_size=5)))
    rows = [[str(x) for x in elements_of(mask)] for mask in masks]
    size = str(m)
    for edit in draw(st.lists(st.sampled_from(EDITS), max_size=2)):
        if edit == "size":
            size = draw(SIZE_TEXTS)
        elif edit == "empty member":
            rows.insert(draw(st.integers(0, len(rows))), [])
        elif rows:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            at = draw(st.integers(0, len(row)))
            if edit == "id":
                row.insert(at, draw(ID_TEXTS))
            elif edit == "repeat id" and row:
                row.insert(at, draw(st.sampled_from(row)))
            elif edit == "drop id" and row:
                row.pop(at - 1)
            elif edit == "repeat member":
                rows.append(list(row))
            elif edit == "swap members":
                rows[0], rows[-1] = rows[-1], rows[0]
    members = "[" + ",".join("[" + ",".join(row) + "]" for row in rows) + "]"
    layout = draw(st.just(CANONICAL_LAYOUT) | st.sampled_from(OTHER_LAYOUTS))
    tail = draw(st.sampled_from(["", "", " ", "x", "}", "\n", ",{}"]))
    return layout.format(members, size) + tail


NEAR_CANONICAL = near_canonical_lines()

FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _parsed(parse, arg):
    try:
        return parse(arg)
    except FamilyParseError:
        return None


@FUZZ
@given(TEXTS)
@example("1" * 5000)
def test_text_parser_returns_masks_or_parse_error(text):
    masks = _parsed(parse_members_text, text)
    assert masks is None or all(isinstance(a, int) and a >= 0 for a in masks)
    fam = _parsed(parse_family_text, text)
    assert fam is None or isinstance(fam, SetFamily)


@FUZZ
@given(TEXTS | DOCUMENTS.map(json.dumps))
@example('{"universe_size": ' + "1" * 5000 + ', "members": []}')
@example('{"members": ' + "[" * 100_000 + "]" * 100_000 + "}")
def test_json_parser_returns_family_or_parse_error(text):
    fam = _parsed(parse_family_json, text)
    assert fam is None or isinstance(fam, SetFamily)


@FUZZ
@given(DOCUMENTS)
def test_json_dict_returns_family_or_parse_error(doc):
    fam = _parsed(family_from_json_dict, doc)
    assert fam is None or isinstance(fam, SetFamily)


@FUZZ
@given(TEXTS | DOCUMENTS.map(json.dumps))
@example('{"universe_size": ' + "1" * 5000 + ', "members": []}')
def test_verify_input_exits_with_a_code(tmp_path, capsys, text):
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    code = main(["verify", "--input", str(path)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    if code in (1, 2):
        assert err.startswith("error:")
    if not text.lstrip().startswith("{"):
        # The text form is one family: it parses or the CLI exits 1.
        assert (code == 1) == (_parsed(parse_family_text, text) is None)


def _json_family(line):
    return family_from_json_dict(decode_json(line))


@FUZZ
@given(NEAR_CANONICAL)
@example('{"members":[[0,0]],"universe_size":2}')
@example('{"members":[[],[0,1]],"universe_size":2}')
def test_canonical_decoder_returns_none_or_the_json_family(line):
    fam = family_from_ndjson(line)
    assert fam is None or fam == _parsed(_json_family, line) is not None


@FUZZ
@given(st.lists(NEAR_CANONICAL, min_size=1, max_size=3))
def test_verify_input_reads_lines_as_the_json_reader_does(tmp_path, capsys, monkeypatch,
                                                          lines):
    # The reference run reads every line through decode_json and
    # family_from_json_dict alone, as the reader did before the text path.
    path = tmp_path / "corpus.ndjson"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def verify():
        code = main(["verify", "--input", str(path)])
        return code, *capsys.readouterr()

    fast = verify()
    with monkeypatch.context() as mp:
        mp.setattr(cli, "family_from_ndjson", lambda line: None)
        assert verify() == fast
