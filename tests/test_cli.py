"""End-to-end command-line tests, run in-process via main(argv)."""

import hashlib
import io
import itertools
import json
from dataclasses import replace
from pathlib import Path

import jsonschema
import pytest

from ucsets import bounds, cli, family, search, witnesses
from ucsets.cli import main
from ucsets.formats import load_schema

TRI_TEXT = "0\n1\n0,1\n"
NONUC_TEXT = "0\n1\n"
CHAIN_TEXT = "-\n0\n0,1\n0,1,2\n"


@pytest.fixture()
def tri_file(tmp_path):
    p = tmp_path / "tri.txt"
    p.write_text(TRI_TEXT)
    return str(p)


@pytest.fixture()
def nonuc_file(tmp_path):
    p = tmp_path / "nonuc.txt"
    p.write_text(NONUC_TEXT)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_text_output(self, capsys, tri_file):
        code, out, err = run(capsys, "analyze", tri_file)
        assert code == 0
        lines = out.splitlines()
        assert "m: 2" in lines
        assert "n: 3" in lines
        assert "union_closed: true" in lines
        assert "separating: true" in lines
        assert "verdict: covered-by-small-m" in lines
        assert err == ""

    def test_json_output_matches_schema(self, capsys, tri_file):
        code, out, _ = run(capsys, "analyze", tri_file, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("analyze"))
        assert doc["m"] == 2 and doc["n"] == 3
        assert doc["union_closed"] is True and doc["separating"] is True
        assert doc["frequencies"] == {"0": 2, "1": 2}
        assert doc["order"] == [0, 1]
        assert doc["frankl_witnesses"] == [0, 1]
        assert doc["verdict"] == "covered-by-small-m"
        assert doc["alarm"] is None

    def test_alarm_line(self, capsys, monkeypatch, tri_file):
        monkeypatch.setattr(bounds, "frankl_witnesses", lambda f: [])
        code, out, _ = run(capsys, "analyze", tri_file)
        assert code == 0
        assert ("alarm: covered family has an empty witness set (potential counterexample)"
                in out.splitlines())

    def test_not_union_closed_reports_no_verdict(self, capsys, nonuc_file):
        code, out, _ = run(capsys, "analyze", nonuc_file, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("analyze"))
        assert doc["union_closed"] is False
        assert doc["verdict"] is None
        assert doc["notes"] == ["verdict requires a union-closed separating family"]

    def test_not_union_closed_runs_no_pair_scan(self, capsys, monkeypatch, nonuc_file):
        def pair_scan(f):
            raise AssertionError("analyze ran the pairwise scan")
        monkeypatch.setattr(family, "find_union_gap", pair_scan)
        code, out, _ = run(capsys, "analyze", nonuc_file)
        assert code == 0
        assert "union_closed: false" in out.splitlines()

    def test_empty_family_rejected(self, capsys, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("# nothing here\n")
        code, _, err = run(capsys, "analyze", str(p))
        assert code == 2
        assert "empty family" in err

    def test_duplicate_lines_warn(self, capsys, tmp_path):
        p = tmp_path / "dup.txt"
        p.write_text("0\n0\n1\n0 1\n")
        code, out, err = run(capsys, "analyze", str(p))
        assert code == 0
        assert "warning: 1 duplicate member line(s) collapsed" in err
        assert "n: 3" in out.splitlines()

    def test_padded_json_input_warns_and_drops(self, capsys, tmp_path):
        p = tmp_path / "padded.json"
        p.write_text('{"universe_size": 4, "members": [[0]]}')
        code, out, err = run(capsys, "analyze", str(p))
        assert code == 0
        assert "unused element ids dropped" in err
        assert "m: 1" in out.splitlines()

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(TRI_TEXT))
        code, out, _ = run(capsys, "analyze", "-")
        assert code == 0
        assert "n: 3" in out.splitlines()


class TestClosure:
    def test_text(self, capsys, nonuc_file):
        code, out, _ = run(capsys, "closure", nonuc_file)
        assert code == 0
        assert out == "0\n1\n0,1\n"

    def test_json(self, capsys, nonuc_file):
        code, out, _ = run(capsys, "closure", nonuc_file, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("family"))
        assert doc == {"universe_size": 2, "members": [[0], [1], [0, 1]]}

    def test_closure_is_idempotent_through_cli(self, capsys, tmp_path,
                                               nonuc_file, monkeypatch):
        _, once, _ = run(capsys, "closure", nonuc_file)
        monkeypatch.setattr("sys.stdin", io.StringIO(once))
        _, twice, _ = run(capsys, "closure", "-")
        assert once == twice


class TestQuotient:
    def test_merges_identical_columns(self, capsys, tmp_path):
        p = tmp_path / "q.txt"
        p.write_text("0,1\n0,1,2\n")
        code, out, _ = run(capsys, "quotient", str(p), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("quotient"))
        assert doc["family"] == {"universe_size": 2, "members": [[0], [0, 1]]}
        assert doc["classes"] == [[0, 1], [2]]

    def test_text_output_with_class_comments(self, capsys, tmp_path):
        p = tmp_path / "q.txt"
        p.write_text("0,1\n0,1,2\n")
        code, out, _ = run(capsys, "quotient", str(p))
        assert code == 0
        assert out == "0\n0,1\n# class 0: 0,1\n# class 1: 2\n"

    def test_round_trips_through_parser(self, capsys, tmp_path):
        p = tmp_path / "q.txt"
        p.write_text("0,1\n0,1,2\n")
        _, out, _ = run(capsys, "quotient", str(p))
        q = tmp_path / "q2.txt"
        q.write_text(out)  # comment lines must be ignored on re-parse
        code, out2, _ = run(capsys, "analyze", str(q))
        assert code == 0
        assert "m: 2" in out2.splitlines()

    def test_requires_union_closed(self, capsys, nonuc_file):
        code, _, err = run(capsys, "quotient", nonuc_file)
        assert code == 2
        assert "run the closure command first" in err


class TestWitness:
    def test_chain_text(self, capsys, tri_file):
        code, out, _ = run(capsys, "witness", tri_file)
        assert code == 0
        lines = out.splitlines()
        assert "order: 0 1" in lines
        assert "X_0 = {0,1}" in lines
        assert any(line.startswith("X_1 = ") for line in lines)
        assert any(line.startswith("M_1 = ") for line in lines)
        assert "empty_set_member: false" in lines

    def test_chain_json_schema(self, capsys, tri_file):
        code, out, _ = run(capsys, "witness", tri_file, "--format", "json")
        assert code == 0
        jsonschema.validate(json.loads(out), load_schema("chain"))

    def test_transversal_json_schema(self, capsys, tri_file):
        code, out, _ = run(capsys, "witness", tri_file,
                           "--which", "transversal", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("transversal"))
        assert doc["k"] == len(doc["u_hat"])

    def test_audit_text_and_json(self, capsys, tri_file):
        code, out, _ = run(capsys, "witness", tri_file, "--which", "audit")
        assert code == 0
        lines = out.splitlines()
        assert "rhs: 4" in lines
        assert lines[-1] == "inequality holds"
        assert all(line.endswith(": ok") for line in lines
                   if line.startswith("bullet "))

        code, out, _ = run(capsys, "witness", tri_file, "--which", "audit",
                           "--format", "json")
        assert code == 0
        jsonschema.validate(json.loads(out), load_schema("audit"))

    def test_audit_builds_columns_once(self, capsys, monkeypatch, tri_file):
        built = []
        real = family._bit_columns

        def counting(members, universe_size):
            built.append(members)
            return real(members, universe_size)

        monkeypatch.setattr(family, "_bit_columns", counting)
        code, _, _ = run(capsys, "witness", tri_file, "--which", "audit")
        assert code == 0
        assert built == [(0b01, 0b10, 0b11)]

    def test_requires_union_closed(self, capsys, nonuc_file):
        code, _, err = run(capsys, "witness", nonuc_file)
        assert code == 2
        assert "run the closure command first" in err

    def test_requires_separating(self, capsys, tmp_path):
        p = tmp_path / "glued.txt"
        p.write_text("0,1\n")
        code, _, err = run(capsys, "witness", str(p))
        assert code == 2
        assert "run the quotient command first" in err


class TestBounds:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "bounds", "--m", "13")
        assert code == 0
        lines = out.splitlines()
        assert "k_star: 4" in lines
        assert "min_f: 7.5" in lines
        assert "ieq1_threshold: 41.0" in lines
        assert "closed_form_threshold: 40.3429046181" in lines

    def test_verdict_with_n(self, capsys):
        code, out, _ = run(capsys, "bounds", "--m", "13", "--n", "40")
        assert code == 0
        assert "verdict: covered-by-theorem" in out.splitlines()
        code, out, _ = run(capsys, "bounds", "--m", "13", "--n", "41")
        assert "verdict: not-covered" in out.splitlines()

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "bounds", "--m", "13", "--n", "40",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("bounds"))
        assert doc["f_values"]["4"] == 7.5

    def test_small_m_rejected(self, capsys):
        code, _, err = run(capsys, "bounds", "--m", "1")
        assert code == 2
        assert "m >= 2" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_huge_m_rejected(self, capsys, fmt):
        code, out, err = run(capsys, "bounds", "--m", "1" + "0" * 320, "--format", fmt)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "m <= 2^1000" in err

    def test_largest_m_is_finite(self, capsys):
        m = str(2 ** 1000)
        code, out, _ = run(capsys, "bounds", "--m", m, "--n", m, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("bounds"))
        assert "inf" not in out and doc["verdict"] == "covered-by-lemma"
        code, out, _ = run(capsys, "bounds", "--m", m)
        assert code == 0 and "inf" not in out
        code, _, _ = run(capsys, "bounds", "--m", str(2 ** 1000 + 1))
        assert code == 2


class TestEnumerate:
    def test_text_labels(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--m", "2")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 12
        assert lines[0] == "{}"
        assert all(line.startswith("{") for line in lines)

    def test_ndjson_stream(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--m", "2", "--format", "json")
        assert code == 0
        docs = [json.loads(line) for line in out.splitlines()]
        assert len(docs) == 12
        schema = load_schema("family")
        for doc in docs:
            jsonschema.validate(doc, schema)

    def test_filter_all(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--m", "2", "--filter", "all")
        assert code == 0
        assert len(out.splitlines()) == 14

    def test_capacity_exit(self, capsys):
        code, _, err = run(capsys, "enumerate", "--m", "5")
        assert code == 2
        assert "m <= 4" in err

    @pytest.mark.parametrize("argv, least", [
        (["enumerate", "--m", "-1"], 0),
        (["verify", "--m", "-1"], 0),
        (["random", "--m", "0"], 1),
        (["random", "--m", "-1"], 1),
    ], ids=["enumerate", "verify", "random-0", "random-negative"])
    def test_size_below_the_domain_exit(self, capsys, argv, least):
        m = argv[-1]
        assert run(capsys, *argv) == (2, "", f"error: m must be at least {least}, got {m}\n")

    def test_generator_budget_exit(self, capsys, monkeypatch):
        # Refused at the call: fail at once if a stream starts instead.
        def started(m, family_filter):
            raise AssertionError("enumeration stream started")
        monkeypatch.setattr(search, "_enumerate_exhaustive", started)
        code, out, err = run(capsys, "enumerate", "--mode", "generators", "--m", "6",
                             "--max-generators", "64")
        assert code == 2
        assert out == ""
        assert "m <= 4" in err


class TestRandom:
    def test_byte_identical_runs(self, capsys):
        args = ("random", "--m", "16", "--generators", "10", "--seed", "42")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(out1.splitlines()) == 79

    def test_count_ndjson(self, capsys):
        code, out, _ = run(capsys, "random", "--m", "8", "--count", "3",
                           "--seed", "5", "--format", "json")
        assert code == 0
        docs = [json.loads(line) for line in out.splitlines()]
        assert len(docs) == 3
        assert docs[0] != docs[1]

    def test_count_text_blocks(self, capsys):
        code, out, _ = run(capsys, "random", "--m", "4", "--generators", "3",
                           "--count", "2", "--seed", "1")
        assert code == 0
        assert "\n\n" in out  # blank line between the two family blocks

    def test_default_options(self, capsys):
        assert run(capsys, "random", "--m", "8") == run(
            capsys, "random", "--m", "8", "--generators", "10", "--seed", "0", "--count", "1")


# sha256 of corpus bytes.  The first three are the corpus pins of the
# benchmark (bench/run.py, seed 7); the m = 64 corpus is its two banded
# seeds, 7 then 9, appended.
CORPUS_PINS = [
    ([["enumerate", "--m", "4", "--format", "json"]],
     "6fdfee0d159d424238f7fb3c14786922a707cca1ae19d18fe58c85ed9bd0d901"),
    ([["random", "--m", "16", "--generators", "10", "--seed", "7", "--count", "300",
       "--format", "json"]],
     "44f2c1ec5e26882e80f68438a2ba5081670d9dca90029149409352c3ec4c0415"),
    ([["random", "--m", "64", "--generators", "20", "--seed", seed, "--format", "json"]
      for seed in ("7", "9")],
     "3e6456ac2d8a772edf6b32d52c4f595548504e4308acfc4ce0c3ccd5148186b1"),
    ([["random", "--m", "16", "--generators", "10", "--seed", "7", "--count", "300",
       "--format", "text"]],
     "94fd9823ac365845a772c29c719d13dd636783f8370bf853ddc77dafd8e35eeb"),
    # the 304 separating classes at m = 4, each by its orderly
    # representative, in increasing subfamily-code order
    ([["enumerate", "--mode", "generators", "--m", "4", "--format", "json"]],
     "ae577fc06c31bd8f4b80d1b4ba08cf7784784a296a995f0782216105f02343a7"),
]


@pytest.mark.parametrize("commands, digest", CORPUS_PINS,
                         ids=["enumerate-m4", "random-m16", "random-m64", "random-m16-text",
                              "generators-m4"])
def test_corpus_bytes_pinned(capsys, commands, digest):
    h = hashlib.sha256()
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        h.update(out.encode("utf-8"))
    assert h.hexdigest() == digest


# sha256 of the exit code and stdout of every report command, in text then
# JSON, on fixed inputs.  Guards the report bytes across refactors.
REPORT_INPUTS = {
    "tri": TRI_TEXT,
    "chain": CHAIN_TEXT,
    "not-union-closed": NONUC_TEXT,
    "random-m16": None,  # random --m 16 --seed 42, text form
}
REPORT_COMMANDS = [["analyze"], ["witness", "--which", "chain"],
                   ["witness", "--which", "transversal"], ["witness", "--which", "audit"],
                   ["verify", "--input"]]
REPORT_PINS = {
    "tri":
        "d15b175526c91e3bac8e3609d248e4e4895159f7ca2679c8f2094a1dc57dbb5b",
    "chain":
        "4957c5446015b980461ec47c471561fe920b90361b84aa05a662a9ea110f821b",
    "not-union-closed":
        "cb1431363a8e49be186a6713b99c1bbf0fb572127366fc1b02b0f59750b6f430",
    "random-m16":
        "ae4cf1216a9eaa8738c19256799eaca53cf06e955d4ca5c0a4f5222e934dd361",
    "bounds-m13-n40":
        "d57f5ae6617eee8550ede23a92cde7d146b81c14a55f775f22fa36c16610090d",
    "bounds-n3m":
        "79fe7a2bb7cc322bab6a1350999768cd60c4a147488ee61b151d79c48025adfc",
}
BOUNDS_PIN_ARGVS = {
    "bounds-m13-n40": [["bounds", "--m", "13", "--n", "40"]],
    "bounds-n3m": [["bounds", "--m", str(m), "--n", str(3 * m)]
                   for m in (2, 3, 12, 13, 42, 43, 100, 4096, 2 ** 1000)],
}
# The same digest over the family-writing commands.
FAMILY_COMMANDS = [["closure"], ["quotient"]]
FAMILY_PINS = {
    "tri": "8e8b202c83647e9c1831299d5d293d90e8776666f72ea4476a9c1920eb54e492",
    "chain": "ad5a95174e2e13876fb3b04d3b63ea38c8232c1c2f736b1a35f62595b6dc686c",
    "not-union-closed": "035d8d153f245d6456e671caa1ef089465f3daa621bad8366d82d38470375e34",
    "random-m16": "fcd62e5e2d341a64851e1a89d6ea88ac02cde9b3a52582a0a63a580265dd106b",
}


def _report_digest(capsys, argvs):
    h = hashlib.sha256()
    for argv in argvs:
        for fmt in ("text", "json"):
            code, out, _ = run(capsys, *argv, "--format", fmt)
            h.update(f"{code}\n{out}".encode("utf-8"))
    return h.hexdigest()


def _input_file(capsys, tmp_path, name):
    text = REPORT_INPUTS[name]
    if text is None:
        _, text, _ = run(capsys, "random", "--m", "16", "--seed", "42")
    p = tmp_path / "family.txt"
    p.write_text(text)
    return str(p)


@pytest.mark.parametrize("name", list(REPORT_PINS))
def test_report_bytes_pinned(capsys, tmp_path, name):
    if name in BOUNDS_PIN_ARGVS:
        argvs = BOUNDS_PIN_ARGVS[name]
    else:
        path = _input_file(capsys, tmp_path, name)
        argvs = [cmd + [path] for cmd in REPORT_COMMANDS]
    assert _report_digest(capsys, argvs) == REPORT_PINS[name]


@pytest.mark.parametrize("name", list(FAMILY_PINS))
def test_family_bytes_pinned(capsys, tmp_path, name):
    path = _input_file(capsys, tmp_path, name)
    argvs = [cmd + [path] for cmd in FAMILY_COMMANDS]
    assert _report_digest(capsys, argvs) == FAMILY_PINS[name]


# sha256 of the chain, transversal and audit documents (JSON, then the
# witness command's text lines) of the 4 404 families of enumerate --m 4
# and of random_family(16, 10, 7 + i) for i < 300.  A family without
# members has no chain.
WITNESS_DOCUMENTS_PIN = "2d24716b8b861b4245239505cc017a8cc0e34025ec23fb8ec36533798d94adb3"


def test_witness_documents_pinned():
    from ucsets.formats import chain_to_json, report_to_json, to_json, transversal_to_json
    corpus = itertools.chain(search.enumerate_union_closed(4),
                             (search.random_family(16, 10, 7 + i) for i in range(300)))
    h = hashlib.sha256()
    count = 0
    for f in corpus:
        count += 1
        tr = witnesses.minimal_transversal(f)
        audit = report_to_json(witnesses.counting_audit(f, tr))
        transversal_doc = transversal_to_json(f, tr)
        documents = [(transversal_doc, cli._transversal_lines(transversal_doc)),
                     (audit, cli._audit_lines(audit))]
        if f.n:  # the chain needs a member
            chain_doc = chain_to_json(f, witnesses.falgas_ravry_chain(f))
            documents.insert(0, (chain_doc, cli._chain_lines(chain_doc)))
        for doc, lines in documents:
            h.update(to_json(doc).encode("utf-8"))
            h.update("\n".join(lines).encode("utf-8"))
    assert count == 4704
    assert h.hexdigest() == WITNESS_DOCUMENTS_PIN


class TestVerify:
    def test_enumerated_corpus_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "3")
        assert code == 0
        lines = out.splitlines()
        assert "total_families: 96" in lines
        assert lines[-1] == "ok"

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("corpus"))
        assert doc["ok"] is True and doc["total_families"] == 12

    def test_generator_classes_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "--mode", "generators", "--m", "4",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["total_families"] == doc["union_closed_count"] \
            == doc["separating_count"] == 304

    def test_union_gap_members_rendered_as_labels(self, capsys, tmp_path):
        p = tmp_path / "gap.json"
        p.write_text('{"members":[[0,1],[2]],"universe_size":3}')
        reason = "not union-closed: the union of {0,1} and {2} is missing"
        code, out, _ = run(capsys, "verify", "--input", str(p))
        assert code == 3
        assert f"REJECTED: {{{{0,1}},{{2}}}}: {reason}" in out.splitlines()
        code, out, _ = run(capsys, "verify", "--input", str(p), "--format", "json")
        assert code == 3
        assert json.loads(out)["rejections"] == [["{{0,1},{2}}", reason]]

    def test_rejects_bad_family_file(self, capsys, nonuc_file):
        code, out, _ = run(capsys, "verify", "--input", nonuc_file)
        assert code == 3
        lines = out.splitlines()
        assert any(line.startswith("REJECTED:") for line in lines)
        assert lines[-1] == "FAILURES FOUND"

    def test_duplicate_lines_warn_as_in_analyze(self, capsys, tmp_path):
        p = tmp_path / "dup.txt"
        p.write_text("0\n0\n1\n0 1\n")
        code, out, err = run(capsys, "verify", "--input", str(p))
        assert code == 0
        assert out.splitlines()[-1] == "ok"
        assert err == run(capsys, "analyze", str(p))[2] \
            == "warning: 1 duplicate member line(s) collapsed\n"

    def test_single_family_file_ok(self, capsys, tri_file):
        code, out, _ = run(capsys, "verify", "--input", tri_file)
        assert code == 0
        assert "separating_count: 1" in out.splitlines()

    def test_ndjson_pipe_from_enumerate(self, capsys, monkeypatch):
        _, ndjson, _ = run(capsys, "enumerate", "--m", "2", "--format", "json")
        monkeypatch.setattr("sys.stdin", io.StringIO(ndjson))
        code, out, _ = run(capsys, "verify", "--input", "-")
        assert code == 0
        assert "total_families: 12" in out.splitlines()

    def test_json_document_pipe_from_closure(self, capsys, monkeypatch, nonuc_file):
        _, doc, _ = run(capsys, "closure", nonuc_file, "--format", "json")
        assert len(doc.splitlines()) > 1
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, err = run(capsys, "verify", "--input", "-")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert "total_families: 1" in lines
        assert lines[-1] == "ok"

    def test_random_corpus(self, capsys):
        code, out, _ = run(capsys, "verify", "--random", "--m", "8",
                           "--count", "5", "--seed", "7")
        assert code == 0
        assert "total_families: 5" in out.splitlines()

    def test_bad_ndjson_line_exits_one_without_report(self, capsys, tmp_path):
        _, ndjson, _ = run(capsys, "enumerate", "--m", "1", "--format", "json")
        p = tmp_path / "corpus.ndjson"
        p.write_text(ndjson + "\n{not json\n" + ndjson)
        code, out, err = run(capsys, "verify", "--input", str(p))
        assert code == 1
        assert out == ""
        assert f"line {len(ndjson.splitlines()) + 2}:" in err

    def test_needs_source(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2
        assert "--input" in err

    # One case for each pair of a source and an option it does not read,
    # given alone or at its default, after the cases with several options.
    @pytest.mark.parametrize("argv, option, source", [
        (["--random", "--m", "8", "--count", "2", "--mode", "generators",
          "--filter", "all"], "--mode", "--random"),
        (["--input", "CORPUS", "--m", "3", "--random", "--count", "9"], "--m", "--input"),
        (["--m", "3", "--seed", "5", "--count", "9"], "--seed", "--m without --random"),
        (["--m", "3", "--seed", "0"], "--seed", "--m without --random"),
        (["--random", "--m", "8", "--max-generators", "1"], "--max-generators", "--random"),
        *((["--input", "CORPUS", option, *value], option, "--input")
          for option, value in [("--m", ["3"]), ("--random", []),
                                ("--mode", ["exhaustive"]), ("--filter", ["all"]),
                                ("--max-generators", ["2"]), ("--generators", ["10"]),
                                ("--seed", ["0"]), ("--count", ["1"])]),
        *((["--random", "--m", "8", option, value], option, "--random")
          for option, value in [("--mode", "exhaustive"), ("--filter", "separating"),
                                ("--max-generators", "0")]),
        *((["--m", "3", option, value], option, "--m without --random")
          for option, value in [("--generators", "7"), ("--seed", "0"), ("--count", "1")]),
    ], ids=["random-mode", "input-m", "enumeration-seed", "enumeration-default-seed",
            "random-max-generators",
            *(f"input+{option}" for option in ("m", "random", "mode", "filter",
                                               "max-generators", "generators", "seed",
                                               "count")),
            *(f"random+{option}" for option in ("mode", "filter", "max-generators")),
            *(f"m+{option}" for option in ("generators", "seed", "count"))])
    def test_refuses_options_its_source_does_not_read(self, capsys, monkeypatch,
                                                      tmp_path, argv, option, source):
        def unbuilt(*args, **kwargs):
            raise AssertionError("a family was built")

        p = tmp_path / "corpus.ndjson"
        p.write_text('{"members":[[0],[1],[0,1]],"universe_size":2}\n')
        for name in ("_read_families", "random_family", "enumerate_union_closed"):
            monkeypatch.setattr(cli, name, unbuilt)
        argv = [str(p) if arg == "CORPUS" else arg for arg in argv]
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {option} does not apply to verify {source}\n"

    @pytest.mark.parametrize("generate, options", [
        (["enumerate", "--m", "3"], []),
        (["enumerate", "--m", "3"],
         ["--mode", "generators", "--filter", "validated", "--max-generators", "2"]),
        (["random", "--m", "8"], []),
        (["random", "--m", "8"], ["--generators", "7", "--seed", "5", "--count", "4"]),
    ], ids=["enumerate-defaults", "enumerate-options", "random-defaults", "random-options"])
    def test_a_source_reads_as_its_subcommand_writes(self, capsys, monkeypatch,
                                                     generate, options):
        # The report alone counts families, so the families are compared too.
        seen = []

        def recording(corpus):
            families = [f.decode() if isinstance(f, cli._Line) else f for f in corpus]
            seen.append([family.family_label(f) for f in families])
            return search.corpus_verify(families)

        monkeypatch.setattr(cli, "corpus_verify", recording)
        _, corpus, _ = run(capsys, *generate, *options, "--format", "json")
        monkeypatch.setattr("sys.stdin", io.StringIO(corpus))
        piped = run(capsys, "verify", "--input", "-", "--format", "json")
        source = ["--random"] if generate[0] == "random" else []
        direct = run(capsys, "verify", *source, *generate[1:], *options, "--format", "json")
        assert piped == direct and piped[0] == 0 and piped[2] == ""
        assert seen[0] == seen[1] and len(seen[0]) == json.loads(piped[1])["total_families"]

    def test_every_failure_line(self, capsys, monkeypatch, tmp_path):
        # Broken builders make one family raise every kind of failure line.
        def broken(name, edit):
            real = getattr(witnesses, name)
            return lambda *args: edit(real(*args))

        def audit_then_zero_frequencies(f, tr):
            # The n <= 2m lemma check reads the family's frequencies next.
            a = witnesses.counting_audit(f, tr)
            f.__dict__["freq"] = (0,) * f.universe_size
            return replace(a, inequality_holds=False,
                           bullets_ok={**a.bullets_ok, "full_sets": False})

        monkeypatch.setattr(search, "frankl_witnesses", lambda f: [])
        monkeypatch.setattr(bounds, "frankl_witnesses", lambda f: [])
        monkeypatch.setattr(search, "falgas_ravry_chain", broken(
            "falgas_ravry_chain", lambda w: replace(w, pair_witnesses={})))
        monkeypatch.setattr(search, "minimal_transversal", broken(
            "minimal_transversal",
            lambda tr: replace(tr, pb_family={0b100: 0b101})))
        monkeypatch.setattr(search, "counting_audit", audit_then_zero_frequencies)
        p = tmp_path / "corpus.ndjson"
        p.write_text('{"members":[[2],[1,2],[0,1,2]],"universe_size":3}\n'
                     '{"members":[[0],[1]],"universe_size":2}\n')
        label = "{{2},{1,2},{0,1,2}}"
        code, out, _ = run(capsys, "verify", "--input", str(p))
        assert code == 3
        assert out.splitlines() == [
            "total_families: 2",
            "union_closed_count: 1",
            "separating_count: 1",
            f"FRANKL VIOLATION: {label}",
            f"INVARIANT FAILURE: {label}: chain: pair witness keys are not exactly the "
            "rank pairs i<j",
            f"INVARIANT FAILURE: {label}: transversal: pattern member for 0x4 is not a member",
            f"INVARIANT FAILURE: {label}: lemma: top element below half frequency "
            "despite n <= 2m",
            f"INVARIANT FAILURE: {label}: applicability: covered family has an empty "
            "witness set (potential counterexample)",
            f"AUDIT FAILURE: {label}: full_sets",
            f"AUDIT FAILURE: {label}: inequality",
            "REJECTED: {{0},{1}}: not union-closed: the union of {0} and {1} is missing",
            "FAILURES FOUND",
        ]
        code, out, _ = run(capsys, "verify", "--input", str(p), "--format", "json")
        assert code == 3
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("corpus"))
        assert doc["ok"] is False
        assert all(doc[key] for key in ("frankl_violations", "invariant_failures",
                                        "audit_failures", "rejections"))


ONE_FAMILY_COMMANDS = [["analyze"], ["closure"], ["quotient"], ["witness", "--which", "chain"],
                       ["witness", "--which", "transversal"], ["witness", "--which", "audit"]]


class TestReader:
    """Every command reads families through one reader of three forms."""

    @pytest.mark.parametrize("command", ONE_FAMILY_COMMANDS + [["verify", "--input"]],
                             ids=" ".join)
    def test_every_form_gives_the_same_family(self, capsys, tmp_path, command):
        text = tmp_path / "chain.txt"
        text.write_text(CHAIN_TEXT)
        _, indented, _ = run(capsys, "closure", str(text), "--format", "json")
        doc = json.loads(indented)
        assert len(indented.splitlines()) > 1
        ndjson = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        forms = {"text": CHAIN_TEXT, "one-line": json.dumps(doc), "indented": indented,
                 "ndjson": ndjson}
        seen = {}
        for name, content in forms.items():
            p = tmp_path / name
            p.write_text(content)
            seen[name] = [run(capsys, *command, str(p), "--format", fmt)
                          for fmt in ("text", "json")]
        assert all(code == 0 and err == "" for code, _, err in seen["text"])
        for name in forms:
            assert seen[name] == seen["text"], name

    @pytest.mark.parametrize("command", ONE_FAMILY_COMMANDS,
                             ids=" ".join)
    def test_one_family_commands_refuse_a_corpus(self, capsys, tmp_path, command):
        _, ndjson, _ = run(capsys, "random", "--m", "6", "--count", "2", "--format", "json")
        assert len(ndjson.splitlines()) == 2
        p = tmp_path / "corpus.ndjson"
        p.write_text(ndjson)
        code, out, err = run(capsys, *command, str(p))
        assert (code, out) == (1, "")
        assert "corpus" in err

    @pytest.mark.parametrize("command, content, stdin", [
        (["verify", "--input"], '{"members":[[0],[0,1]],"universe_size":2}\n', False),
        (["analyze"], TRI_TEXT, False),
        (["verify", "--input"], '{"members":[[0],[0,1]],"universe_size":2}\n', True),
        (["analyze"], TRI_TEXT, True),
        # "\ufeff\n".strip() is not empty: the mark goes before the blank-line scan
        (["verify", "--input"], '\n{"members":[[0],[0,1]],"universe_size":2}\n', False),
        (["analyze"], "\n" + TRI_TEXT, True),
    ], ids=["verify-ndjson", "analyze-text", "verify-ndjson-stdin", "analyze-text-stdin",
            "verify-blank-line-after-mark", "analyze-blank-line-after-mark-stdin"])
    def test_a_leading_byte_order_mark_is_dropped(self, capsys, monkeypatch, tmp_path,
                                                  command, content, stdin):
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_text(content, encoding="utf-8")
        marked.write_text("\ufeff" + content, encoding="utf-8")
        expected = run(capsys, *command, str(plain))
        assert expected[0] == 0
        if stdin:
            monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + content))
            marked = "-"
        assert run(capsys, *command, str(marked)) == expected

    def test_bad_first_line_stops_reading(self, capsys, monkeypatch):
        family_line = '{"members":[[0]],"universe_size":1}\n'
        monkeypatch.setattr("sys.stdin", FirstLineOnly("{not json\n", family_line * 3))
        code, out, err = run(capsys, "verify", "--input", "-")
        assert (code, out) == (1, "")
        assert err.startswith("error: line 1:")

    def test_unfinished_first_line_starts_a_document(self, capsys, tmp_path):
        p = tmp_path / "doc.json"
        p.write_text('{"universe_size": 1,\n "members": [[0]]}\n{"members":[[0]]}\n')
        code, out, err = run(capsys, "verify", "--input", str(p))
        assert (code, out) == (1, "")
        assert err.startswith("error: line 3: invalid JSON: Extra data")

    def test_ndjson_family_errors_name_their_line(self, capsys, tmp_path):
        p = tmp_path / "corpus.ndjson"
        p.write_text('{"members":[[0]],"universe_size":1}\n\n'
                     '{"members":[[-1]],"universe_size":1}\n')
        code, out, err = run(capsys, "verify", "--input", str(p))
        assert (code, out) == (1, "")
        assert err == "error: line 3: members[0] contains a negative element id\n"
        p.write_text('\n{"members":[[0, 64]],"universe_size":65}\n')
        assert run(capsys, "analyze", str(p)) \
            == (1, "", "error: line 2: members[0] exceeds the 64-element capacity\n")

    def test_json_repeats_are_refused(self, capsys, tmp_path):
        p = tmp_path / "dup.json"
        p.write_text('{"members":[[0],[0]],"universe_size":1}\n')
        assert run(capsys, "analyze", str(p)) \
            == (1, "", "error: line 1: members[1] repeats members[0]\n")
        p.write_text('{"members":[[0]],"universe_size":1}\n'
                     '{"members":[[0],[0,1,1]],"universe_size":2}\n')
        assert run(capsys, "verify", "--input", str(p)) \
            == (1, "", "error: line 2: members[1] repeats element id 1\n")
        p.write_text('{"universe_size": 1,\n "members": [[0], [0]]}\n')
        assert run(capsys, "analyze", str(p)) \
            == (1, "", "error: members[1] repeats members[0]\n")

    def test_document_errors_stay_unnumbered(self, capsys, tmp_path):
        p = tmp_path / "doc.json"
        p.write_text('{"universe_size": 1,\n "members": [[-1]]}\n')
        assert run(capsys, "analyze", str(p)) \
            == (1, "", "error: members[0] contains a negative element id\n")

    @pytest.mark.parametrize("command", [["analyze"], ["verify", "--input"]],
                             ids=" ".join)
    def test_text_labels_fed_back_name_the_missing_fields(self, capsys, tmp_path,
                                                          command):
        _, labels, _ = run(capsys, "enumerate", "--m", "2", "--format", "text")
        assert labels.splitlines()[0] == "{}"
        p = tmp_path / "labels.txt"
        p.write_text(labels)
        assert run(capsys, *command, str(p)) == (
            1, "", "error: line 1: missing family fields ['members', 'universe_size']\n")

    @pytest.mark.parametrize("command", ONE_FAMILY_COMMANDS, ids=" ".join)
    def test_second_line_is_refused_undecoded(self, capsys, monkeypatch, command):
        family_line = '{"members":[[0]],"universe_size":1}\n'
        monkeypatch.setattr("sys.stdin", io.StringIO(family_line + "{not json\n"))
        code, out, err = run(capsys, *command, "-")
        assert (code, out) == (1, "")
        assert err == ("error: input is a corpus of several families; "
                       "only verify --input reads corpora\n")

    def test_one_family_commands_build_one_family(self, capsys, tmp_path, monkeypatch):
        _, ndjson, _ = run(capsys, "random", "--m", "6", "--count", "2", "--format", "json")
        p = tmp_path / "corpus.ndjson"
        p.write_text(ndjson)
        built = []
        real = cli.family_from_ndjson
        monkeypatch.setattr(cli, "family_from_ndjson",
                            lambda line: built.append(line) or real(line))
        code, _, err = run(capsys, "analyze", str(p))
        assert code == 1 and "corpus" in err
        assert len(built) == 1


class FirstLineOnly(io.StringIO):
    """A stdin whose reads past its first line fail the test."""

    def __init__(self, first: str, rest: str):
        super().__init__(first + rest)
        self.limit = len(first)

    def _check(self):
        if self.tell() >= self.limit:
            raise AssertionError("read past the first line")

    def __next__(self):
        self._check()
        return super().__next__()

    def readline(self, size=-1):
        self._check()
        return super().readline(size)

    def read(self, size=-1):
        self._check()
        return super().read(size)


class TestErrorPaths:
    @pytest.mark.parametrize("command", [["analyze"], ["verify", "--input"]],
                             ids=["analyze", "verify"])
    def test_deeply_nested_json_exits_one(self, capsys, tmp_path, command):
        depth = 200_000
        p = tmp_path / "deep.json"
        p.write_text('{"universe_size": 1, "members": '
                     + "[" * depth + "]" * depth + "}\n")
        code, out, err = run(capsys, *command, str(p))
        assert code == 1
        assert out == ""
        assert "nested too deeply" in err

    def test_member_budget_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(family, "MAX_MEMBERS", 1 << 12)
        code, out, err = run(capsys, "random", "--m", "64", "--generators", "40")
        assert code == 2
        assert out == ""
        assert "member budget" in err

    def test_parse_error_exit_one(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0\nx\n")
        code, _, err = run(capsys, "analyze", str(p))
        assert code == 1
        assert "line 2" in err

    def test_missing_file_exit_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", str(tmp_path / "absent.txt"))
        assert code == 1
        assert "error:" in err

    def test_bad_json_field_exit_one(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"universe_size": 2, "members": [], "junk": 1}')
        code, _, err = run(capsys, "analyze", str(p))
        assert code == 1
        assert "unknown family fields" in err

    @pytest.mark.parametrize("command", ["enumerate", "verify"])
    def test_max_generators_outside_generator_mode(self, capsys, monkeypatch, command):
        def started(m, family_filter):
            raise AssertionError("enumeration stream started")
        monkeypatch.setattr(search, "_enumerate_exhaustive", started)
        code, out, err = run(capsys, command, "--m", "3", "--max-generators", "1")
        assert (code, out) == (2, "")
        assert err == "error: max_generators applies to generator mode only\n"

    def test_usage_error_from_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate"])  # --m is required
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["bounds", "--m", "13", "--n", "-5"],
        ["random", "--m", "8", "--count", "-1"],
        ["verify", "--random", "--m", "8", "--count", "-3"],
        ["enumerate", "--mode", "generators", "--m", "3", "--max-generators", "-1"],
        ["verify", "--mode", "generators", "--m", "3", "--max-generators", "-1"],
    ], ids=["bounds-n", "random-count", "verify-count",
            "enumerate-max-generators", "verify-max-generators"])
    def test_negative_count_rejected_by_argparse(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be non-negative" in captured.err

    def test_non_integer_count_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["random", "--m", "8", "--count", "2.5"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "error: argument --count: invalid int value: '2.5'\n")


def _readme_tour():
    """The README's "Command-line tour" transcript: command -> output text."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Command-line tour", 1)[1]
    block = tour.split("```text\n", 1)[1].split("```", 1)[0]
    outputs: dict[str, list[str]] = {}
    for line in block.splitlines():
        if line.startswith("$ "):
            lines = outputs[line[2:]] = []
        else:
            lines.append(line)
    # A blank line separates one command's output from the next command.
    return {cmd: "\n".join(lines).rstrip("\n") + "\n" for cmd, lines in outputs.items()}


@pytest.mark.parametrize("command", [
    "ucsets analyze tri.txt",
    "ucsets witness tri.txt --which chain",
    "ucsets witness tri.txt --which transversal",
    "ucsets witness tri.txt --which audit",
    "ucsets bounds --m 13 --n 40",
])
def test_readme_transcript(capsys, monkeypatch, tmp_path, command):
    tour = _readme_tour()
    (tmp_path / "tri.txt").write_text(tour["cat tri.txt"])
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *command.split()[1:])
    assert (code, err) == (0, "")
    assert out == tour[command]
