"""Text/JSON parsing, serialization, rounding, bundled schemas."""

import contextlib
import io
import json

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ucsets import (
    FamilyParseError,
    SetFamily,
    bound_report,
    counting_audit,
    enumerate_union_closed,
    falgas_ravry_chain,
    family_from_json_dict,
    family_from_masks,
    family_to_json_dict,
    family_to_text,
    make_family,
    minimal_transversal,
    parse_family_json,
    parse_family_text,
    random_family,
    corpus_verify,
    to_json,
)
from ucsets import cli, formats, search
from ucsets.cli import _one_object, main
from ucsets.errors import UnfinishedJSONError
from ucsets.formats import (
    M_SETS_DEFINITION,
    chain_to_json,
    corpus_to_json,
    decode_json,
    family_from_ndjson,
    family_to_ndjson,
    load_schema,
    parse_members_text,
    report_to_json,
    round12,
    transversal_to_json,
)

TRI = make_family([{0}, {1}, {0, 1}])
# The corpora of the benchmark's three workloads (bench/run.py).
BENCHMARK_CORPORA = [
    ["enumerate", "--m", "4"],
    ["random", "--m", "16", "--generators", "10", "--seed", "7", "--count", "300"],
    ["random", "--m", "64", "--generators", "20", "--seed", "7"],
    ["random", "--m", "64", "--generators", "20", "--seed", "9"],
]


@pytest.fixture(scope="module")
def benchmark_lines():
    """The NDJSON lines of each benchmark corpus, by its command."""
    lines = {}
    for command in BENCHMARK_CORPORA:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(command + ["--format", "json"]) == 0
        lines[" ".join(command)] = out.getvalue().splitlines()
    return lines


class TestTextParsing:
    def test_basic(self):
        f = parse_family_text("0\n1\n0,1\n")
        assert f == TRI

    def test_separators_comments_blanks(self):
        text = """
        # a comment line
        0, 1   # trailing comment
        2 3

        0 1 2,3
        -
        """
        masks = parse_members_text(text)
        assert masks == [0b0011, 0b1100, 0b1111, 0]

    def test_duplicates_preserved_in_raw_parse(self):
        assert parse_members_text("0\n0\n1\n") == [1, 1, 2]
        # ...but collapse when building the family
        assert parse_family_text("0\n0\n1\n").n == 2

    def test_empty_input(self):
        f = parse_family_text("")
        assert f.n == 0 and f.universe_size == 0

    def test_error_line_numbers(self):
        with pytest.raises(FamilyParseError, match="line 2: invalid element id 'x'"):
            parse_family_text("0 1\nx y\n")
        with pytest.raises(FamilyParseError, match="line 1: negative element id"):
            parse_family_text("-1\n")
        with pytest.raises(FamilyParseError, match="line 3: .*64-element capacity"):
            parse_family_text("0\n1\n64\n")
        err = None
        try:
            parse_family_text("0\n?\n")
        except FamilyParseError as exc:
            err = exc
        assert err is not None and err.line == 2


class TestTextSerialization:
    def test_render(self):
        assert family_to_text(TRI) == "0\n1\n0,1\n"
        assert family_to_text(family_from_masks([0, 0b101])) == "-\n0,2\n"
        assert family_to_text(family_from_masks([])) == ""

    def test_round_trip_corpora(self, separating_corpora):
        for f in separating_corpora[2]:
            assert parse_family_text(family_to_text(f)) == f

    def test_round_trip_random(self):
        f = random_family(8, 5, 3)
        assert parse_family_text(family_to_text(f)) == f

    def test_padding_dropped(self):
        padded = family_from_masks([0b1], universe_size=3)
        assert parse_family_text(family_to_text(padded)).universe_size == 1


class TestJsonFamilies:
    def test_dict_round_trip(self):
        doc = family_to_json_dict(TRI)
        assert doc == {"universe_size": 2, "members": [[0], [1], [0, 1]]}
        assert family_from_json_dict(doc) == TRI

    def test_padding_respected(self):
        doc = {"universe_size": 4, "members": [[0], [0, 1]]}
        f = family_from_json_dict(doc)
        assert f.universe_size == 4
        assert family_to_json_dict(f)["universe_size"] == 4

    def test_text_round_trip(self):
        f = parse_family_json(to_json(family_to_json_dict(TRI)))
        assert f == TRI

    def test_round_trip_corpora(self, separating_corpora):
        for f in separating_corpora[3]:
            assert family_from_json_dict(family_to_json_dict(f)) == f

    def test_rejects_malformed(self):
        with pytest.raises(FamilyParseError, match="JSON object"):
            family_from_json_dict([1, 2])
        with pytest.raises(FamilyParseError, match="unknown family fields"):
            family_from_json_dict({"universe_size": 1, "members": [], "extra": 1})
        with pytest.raises(FamilyParseError, match="universe_size must be an integer"):
            family_from_json_dict({"universe_size": True, "members": []})
        with pytest.raises(FamilyParseError, match="members must be an array"):
            family_from_json_dict({"universe_size": 1, "members": 3})
        with pytest.raises(FamilyParseError, match=r"members\[1\] must be an array"):
            family_from_json_dict({"universe_size": 1, "members": [[0], [True]]})
        for bad in ([0.0], ["0"], [None], [[0]], "0", {"0": 1}):
            with pytest.raises(FamilyParseError, match=r"members\[0\] must be an array"):
                family_from_json_dict({"universe_size": 1, "members": [bad]})
        with pytest.raises(FamilyParseError, match="negative element id"):
            family_from_json_dict({"universe_size": 1, "members": [[-2]]})
        with pytest.raises(FamilyParseError, match="64-element capacity"):
            family_from_json_dict({"universe_size": 1, "members": [[64]]})
        with pytest.raises(FamilyParseError, match="universe_size"):
            family_from_json_dict({"universe_size": 1, "members": [[0, 1]]})

    def test_list_subclass_members_are_read(self):
        class Ids(list):
            pass

        doc = {"universe_size": 3, "members": [Ids([1]), [0, 1], Ids([])]}
        assert family_from_json_dict(doc) == family_from_masks([0b10, 0b11, 0], 3)

    @pytest.mark.parametrize("members, message", [
        ([[0], [0]], "members[1] repeats members[0]"),
        ([[], [1], [0, 1], [1, 0]], "members[3] repeats members[2]"),
        ([[1], [], [0], []], "members[3] repeats members[1]"),
        ([[0, 0]], "members[0] repeats element id 0"),
        ([[0], [1, 0, 1]], "members[1] repeats element id 1"),
    ])
    def test_refuses_repeats(self, members, message):
        # The bundled family schema declares uniqueItems at both levels.
        with pytest.raises(FamilyParseError) as exc:
            family_from_json_dict({"universe_size": 2, "members": members})
        assert str(exc.value) == message

    @pytest.mark.parametrize("doc, missing", [
        ({}, "['members', 'universe_size']"),
        ({"universe_size": 1}, "['members']"),
        ({"members": [[0]]}, "['universe_size']"),
    ])
    def test_names_missing_fields(self, doc, missing):
        with pytest.raises(FamilyParseError) as exc:
            family_from_json_dict(doc)
        assert str(exc.value) == f"missing family fields {missing}"

    def test_invalid_json_reports_line(self):
        err = None
        try:
            parse_family_json('{\n  "universe_size": ,\n}')
        except FamilyParseError as exc:
            err = exc
        assert err is not None
        assert "invalid JSON" in str(err)
        assert err.line == 2

    @pytest.mark.parametrize("text, unfinished", [
        ("{", True), ('{"universe_size": 2,', True), ('{"members": [[0, 1], [2', True),
        ('{"members": [[0]], "universe_size": 1', True), ("{not json", False),
        ('{"a": "open', False), ('{"a": -', False), ("{} {", False), ("{}}", False),
    ])
    def test_decode_json_tells_unfinished_text(self, text, unfinished):
        with pytest.raises(FamilyParseError) as info:
            decode_json(text, line=1)
        assert isinstance(info.value, UnfinishedJSONError) == unfinished
        assert str(info.value).startswith("line 1: invalid JSON: ")


# Pieces of JSON text, broken ones included, and no braces: strings,
# escapes, numbers and literals cut short, arrays left open.
JSON_PIECES = st.sampled_from([
    '"', "\\", "\\u", "\\u00", '\\"', "[", "]", ":", ",", " ", "\t", "0", "1", "-", ".",
    "e", "+", "t", "true", "nul", "null", "NaN", "Infinity", '"members"', '"universe_size"',
    '"a"', "[[0,1],[2]]", "x", "\u00e9", "/",
])
BRACELESS = (st.lists(JSON_PIECES, max_size=12).map("".join)
             | st.text(max_size=20).map(lambda t: t.replace("{", "").replace("}", "")))


@settings(max_examples=500, deadline=None)
@given(BRACELESS)
@example("")
@example('"')
@example('"a":"')
@example('"a":[1,')
@example('"a":1,')
@example('"a\\')
def test_one_braced_object_never_decodes_unfinished(inner):
    # The reader takes such a first line for NDJSON without decoding it;
    # that is sound only while its decoding cannot fail at its end.
    text = "{" + inner + "}"
    assert _one_object(text)
    try:
        decode_json(text, line=1)
    except UnfinishedJSONError:
        pytest.fail(f"{text!r} decodes as unfinished")
    except FamilyParseError:
        pass


class TestFirstLine:
    """A first line that does not open and close as one object is decoded
    while the input is read, as it always was."""

    def test_indented_document_reads_as_one_family(self, capsys, tmp_path):
        assert main(["random", "--m", "6", "--format", "json"]) == 0
        ndjson = tmp_path / "family.ndjson"
        ndjson.write_text(capsys.readouterr().out)
        assert main(["closure", str(ndjson), "--format", "json"]) == 0
        document = tmp_path / "family.json"
        document.write_text(capsys.readouterr().out)
        assert document.read_text().startswith("{\n  ")
        assert not _one_object(document.read_text().splitlines()[0])
        for path in (ndjson, document):
            assert main(["verify", "--input", str(path)]) == 0
            assert capsys.readouterr() == (
                "total_families: 1\nunion_closed_count: 1\nseparating_count: 1\nok\n", "")

    @pytest.mark.parametrize("text, err", [
        ('{"universe_size": 2, "note": {"by": "hand"},\n "members": [[0], [1], [0, 1]]}\n',
         "error: unknown family fields ['note']\n"),
        ('{"universe_size": 2, "note": {}, "members": [[0]]}\n{"members":[[0]]}\n',
         "error: line 1: unknown family fields ['note']\n"),
    ], ids=["document", "ndjson"])
    def test_a_nested_object_on_the_first_line(self, capsys, tmp_path, text, err):
        assert not _one_object(text.splitlines()[0])
        p = tmp_path / "input.json"
        p.write_text(text)
        assert main(["verify", "--input", str(p)]) == 1
        assert capsys.readouterr() == ("", err)


class TestRounding:
    def test_round12(self):
        assert round12(1 / 3) == 0.333333333333
        assert round12(40.342904618116634) == 40.3429046181
        assert round12(41.0) == 41.0
        assert round12(0.0) == 0.0
        assert round12(-7.5) == -7.5
        assert round12(1e-13) == 1e-13

    def test_idempotent(self):
        for x in (1 / 3, 2.0 ** 0.5, 12345.6789, 1e-7):
            assert round12(round12(x)) == round12(x)


class TestReportSerialization:
    def test_chain_document(self):
        doc = chain_to_json(TRI, falgas_ravry_chain(TRI))
        assert set(doc) == {"order", "chain", "pair_witnesses", "m_sets",
                            "m_sets_definition", "empty_set_member"}
        assert doc["order"] == [0, 1]
        assert all("," in key for key in doc["pair_witnesses"])
        assert doc["m_sets_definition"] == M_SETS_DEFINITION

    def test_transversal_document(self):
        doc = transversal_to_json(TRI, minimal_transversal(TRI))
        assert set(doc) == {"order", "tilde_u", "a_sets", "u_hat", "k",
                            "singleton_witnesses", "pb_family",
                            "empty_set_member", "full_sets_not_in_p"}
        assert all(key.isdigit() for key in doc["a_sets"])
        assert all(key.isdigit() for key in doc["singleton_witnesses"])
        assert doc["k"] == len(doc["u_hat"])

    def test_audit_document(self):
        doc = report_to_json(counting_audit(TRI, minimal_transversal(TRI)))
        assert doc["m"] == 2 and doc["n"] == 3
        assert doc["rhs"] == 4
        assert doc["inequality_holds"] is True
        assert all(isinstance(v, bool) for v in doc["bullets_ok"].values())

    def test_bounds_document(self):
        doc = report_to_json(bound_report(13, 40))
        assert doc["k_star"] == 4
        assert doc["min_f"] == 7.5
        assert doc["closed_form_threshold"] == 40.3429046181
        assert list(doc["f_values"]) == ["3", "4", "5", "6"]
        none_doc = report_to_json(bound_report(0))
        assert none_doc["min_f"] is None and none_doc["verdict"] is None

    def test_corpus_document(self):
        rep = corpus_verify(list(enumerate_union_closed(2)))
        doc = corpus_to_json(rep)
        assert doc["total_families"] == 12
        assert doc["ok"] is True
        assert doc["rejections"] == []


class TestStableEncoding:
    def test_sorted_keys(self):
        pretty = to_json({"b": 1, "a": 2})
        assert pretty.index('"a"') < pretty.index('"b"')

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            to_json({"x": float("nan")})

    def test_deterministic(self):
        doc = chain_to_json(TRI, falgas_ravry_chain(TRI))
        assert to_json(doc) == to_json(chain_to_json(TRI, falgas_ravry_chain(TRI)))


class TestBundledSchemas:
    def test_all_kinds_load(self):
        for kind in ("family", "analyze", "chain", "transversal", "audit",
                     "bounds", "corpus", "quotient"):
            schema = load_schema(kind)
            jsonschema.Draft202012Validator.check_schema(schema)

    def test_family_documents_validate(self, separating_corpora):
        schema = load_schema("family")
        validator = jsonschema.Draft202012Validator(schema)
        for f in separating_corpora[2]:
            validator.validate(family_to_json_dict(f))
        validator.validate(family_to_json_dict(random_family(16, 10, 42)))

    def test_family_schema_rejects_junk(self):
        schema = load_schema("family")
        validator = jsonschema.Draft202012Validator(schema)
        with pytest.raises(jsonschema.ValidationError):
            validator.validate({"universe_size": 2})
        with pytest.raises(jsonschema.ValidationError):
            validator.validate({"universe_size": 2, "members": [], "x": 1})

    def test_report_documents_validate(self):
        cases = [
            ("chain", chain_to_json(TRI, falgas_ravry_chain(TRI))),
            ("transversal", transversal_to_json(TRI, minimal_transversal(TRI))),
            ("audit", report_to_json(counting_audit(TRI, minimal_transversal(TRI)))),
            ("bounds", report_to_json(bound_report(13, 40))),
            ("bounds", report_to_json(bound_report(0))),
            ("corpus", corpus_to_json(corpus_verify([TRI]))),
        ]
        for kind, doc in cases:
            jsonschema.validate(doc, load_schema(kind))

    def test_report_documents_validate_on_random(self):
        f = random_family(12, 7, 5)
        jsonschema.validate(chain_to_json(f, falgas_ravry_chain(f)),
                            load_schema("chain"))
        jsonschema.validate(transversal_to_json(f, minimal_transversal(f)),
                            load_schema("transversal"))
        jsonschema.validate(report_to_json(counting_audit(f, minimal_transversal(f))),
                            load_schema("audit"))


class TestCorpusDecoding:
    """Corpus families are decoded a family at a time; the per-member loop
    that names the first malformed member runs only for malformed input."""

    @pytest.fixture()
    def fallbacks(self, monkeypatch):
        calls = []
        real = formats._checked_masks
        monkeypatch.setattr(formats, "_checked_masks",
                            lambda members: calls.append(members) or real(members))
        return calls

    @pytest.mark.parametrize("command", [
        ["enumerate", "--m", "4"],
        ["random", "--m", "64", "--generators", "20", "--seed", "7"],
    ], ids=" ".join)
    def test_generated_corpora_skip_the_member_loop(self, capsys, tmp_path, fallbacks,
                                                    monkeypatch, command):
        # One process, so the lines are decoded where the spy sees them.
        monkeypatch.setattr(search, "_worker_count", lambda: 1)
        assert main(command + ["--format", "json"]) == 0
        p = tmp_path / "corpus.ndjson"
        p.write_text(capsys.readouterr().out)
        assert main(["verify", "--input", str(p), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_families"] == len(p.read_text().splitlines()) > 0
        assert fallbacks == []

    @pytest.mark.parametrize("command", BENCHMARK_CORPORA, ids=" ".join)
    def test_generated_corpora_skip_the_json_decoder(self, capsys, tmp_path, monkeypatch,
                                                     command):
        # One process, so the lines are decoded where the spy sees them.
        monkeypatch.setattr(search, "_worker_count", lambda: 1)
        calls = []
        real = cli.decode_json
        monkeypatch.setattr(cli, "decode_json",
                            lambda *args: calls.append(args) or real(*args))
        assert main(command + ["--format", "json"]) == 0
        p = tmp_path / "corpus.ndjson"
        p.write_text(capsys.readouterr().out)
        assert main(["verify", "--input", str(p), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_families"] == len(p.read_text().splitlines()) > 0
        assert calls == []

    def test_malformed_members_take_the_member_loop(self, fallbacks):
        with pytest.raises(FamilyParseError, match=r"members\[1\] must be an array"):
            family_from_json_dict({"universe_size": 2, "members": [[0], [True]]})
        assert fallbacks == [[[0], [True]]]


def _reference(line):
    """The family json and family_from_json_dict read from the line, or
    None when they refuse it."""
    try:
        return family_from_json_dict(decode_json(line))
    except FamilyParseError:
        return None


class TestCanonicalLines:
    """family_from_ndjson reads the writer's exact form and nothing else:
    it returns the family json would give, or None."""

    @pytest.mark.parametrize("command", [" ".join(c) for c in BENCHMARK_CORPORA])
    def test_benchmark_corpora_take_the_text_path(self, benchmark_lines, command):
        lines = benchmark_lines[command]
        assert lines
        for line in lines:
            fam = family_from_ndjson(line)
            assert fam is not None and fam == family_from_json_dict(json.loads(line))

    @given(st.integers(0, 64).flatmap(lambda m: st.tuples(
        st.just(m), st.sets(st.integers(0, (1 << m) - 1), max_size=8))))
    @example((0, set()))
    @example((0, {0}))
    @example((64, {0, 1 << 63, (1 << 64) - 1}))
    def test_inverse_of_the_writer(self, drawn):
        m, masks = drawn
        f = SetFamily(m, tuple(sorted(masks)))
        line = family_to_ndjson(f)
        assert family_from_ndjson(line) == f == family_from_json_dict(json.loads(line))

    @pytest.mark.parametrize("line", [
        '{"members":[],"universe_size":0}',
        '{"members":[],"universe_size":64}',
        '{"members":[[]],"universe_size":0}',
        '{"members":[[],[0]],"universe_size":1}',
        '{"members":[[0,1]],"universe_size":2}',
        '{"members":[[],[0,1]],"universe_size":2}',
        '{"members":[[0],[1],[0,1]],"universe_size":3}',
        '{"members":[[9],[10,63]],"universe_size":64}',
        '{"members":[[1,0]],"universe_size":2}',  # the mask of [0,1]
        '{"members":[[1,0]],"universe_size":8}',
        '{"members":[[],[0],[2,1,0],[7]],"universe_size":8}',
        '{"members":[[0],[8]],"universe_size":9}',
    ])
    def test_writer_form_is_read(self, line):
        assert family_from_ndjson(line) == _reference(line) is not None

    @pytest.mark.parametrize("line", [
        '{"members": [[0]], "universe_size": 1}',
        '{"universe_size":1,"members":[[0]]}',
        '{"members":[[0]],"universe_size":1,"universe_size":1}',
        '{"members":[[0]],"members":[[0]],"universe_size":1}',
        '{"memberz":[[0]],"universe_size":1}',
        '{"members":[[0]],"universe_size":1}x',
        'x{"members":[[0]],"universe_size":1}',
        '{"members":[[0]],"universe_size":1',
        '{"members":[[0]],"universe_size":}',
        '{"members":[[0]],"universe_size":65}',
        '{"members":[[0]],"universe_size":-1}',
        '{"members":[[0]],"universe_size":01}',
        '{"members":[[0]],"universe_size":1.0}',
        '{"members":[[0]],"universe_size":true}',
        '{"members":[[01]],"universe_size":2}',
        '{"members":[[1_0]],"universe_size":11}',
        '{"members":[[\u0661]],"universe_size":2}',
        '{"members":[[\uff17]],"universe_size":8}',
        '{"members":[[64]],"universe_size":64}',
        '{"members":[[-1]],"universe_size":1}',
        '{"members":[[1]],"universe_size":1}',
        '{"members":[[0,0]],"universe_size":2}',
        '{"members":[[0],[1,1]],"universe_size":3}',
        '{"members":[[0],[0]],"universe_size":1}',
        '{"members":[[1],[0]],"universe_size":2}',
        '{"members":[[0],[]],"universe_size":1}',
        '{"members":[[],[]],"universe_size":0}',
        '{"members":[[0,]],"universe_size":1}',
        '{"members":[[,0]],"universe_size":2}',
        '{"members":[[0],,[1]],"universe_size":2}',
        '{"members":[0],"universe_size":1}',
        '{"members":[0]],"universe_size":1}',
        '{"members":[[0],"universe_size":1}',
        '{"members":[[0]]],"universe_size":1}',
        '{"members":[[0,0]],"universe_size":8}',
        '{"members":[[07]],"universe_size":8}',
        '{"members":[[8]],"universe_size":8}',
        '{"members":[[0],[0]],"universe_size":8}',
        '{"members":[[1],[0]],"universe_size":8}',
        '{"members":[[0],[]],"universe_size":8}',
        '{"members":[[],[]],"universe_size":8}',
        '{"members":[[0,]],"universe_size":8}',
        '{"members":[[0],[1],[2]],"universe_size":2}',
    ])
    def test_any_other_line_is_left_to_json(self, line):
        assert family_from_ndjson(line) is None

    @pytest.mark.parametrize("m", range(9))
    def test_every_byte_sized_member_reads_back(self, m):
        f = SetFamily(m, tuple(range(1 << m)))
        line = family_to_ndjson(f)
        assert line == json.dumps(family_to_json_dict(f), sort_keys=True, separators=(",", ":"))
        assert family_from_ndjson(line) == f

    def test_byte_sized_lines_skip_the_per_id_path(self, benchmark_lines, monkeypatch):
        ids = []
        real = formats._ID_TEXT_BIT
        monkeypatch.setattr(formats, "_ID_TEXT_BIT", lambda text: ids.append(text) or real(text))
        lines = benchmark_lines["enumerate --m 4"]
        assert [family_from_ndjson(line) for line in lines] == [
            family_from_json_dict(json.loads(line)) for line in lines]
        assert ids == []
        assert family_from_ndjson('{"members":[[1,0]],"universe_size":8}') is not None
        assert ids == ["1", "0"]

    def test_wider_lines_skip_the_member_table(self, benchmark_lines, monkeypatch):
        calls = []
        real = formats._byte_member_masks
        monkeypatch.setattr(formats, "_byte_member_masks", lambda: calls.append(1) or real())
        for command in BENCHMARK_CORPORA[1:]:
            lines = benchmark_lines[" ".join(command)]
            assert all(family_from_ndjson(line) is not None for line in lines)
        assert family_from_ndjson('{"members":[[0],[1]],"universe_size":9}') is not None
        assert calls == []
        assert family_from_ndjson('{"members":[[0]],"universe_size":8}') is not None
        assert calls == [1]
