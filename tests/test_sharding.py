"""corpus_verify over forked batches: the same report and the same failures
as the sweep in one process, and no child left behind."""

import contextlib
import os
import signal
import subprocess
import sys
import threading
from dataclasses import fields, replace
from pathlib import Path

import pytest

import ucsets
from ucsets import (
    ContradictionError,
    corpus_verify,
    enumerate_union_closed,
    family_from_masks,
    family_label,
    find_union_gap,
    is_separating,
    make_family,
    random_family,
)
from ucsets import bounds, search
from ucsets.cli import _Line, main
from ucsets.errors import FamilyParseError, UnfinishedJSONError
from ucsets.formats import corpus_to_json, family_to_ndjson, to_json
from ucsets.search import CorpusReport


@pytest.fixture()
def forked(monkeypatch):
    """The batches handed to child processes, recorded in the parent."""
    batches = []
    real = search._fork

    def spy(batch):
        batches.append(list(batch))
        return real(batch)
    monkeypatch.setattr(search, "_fork", spy)
    return batches


def shard(monkeypatch, budget, workers=3):
    monkeypatch.setattr(search, "BATCH_MEMBERS", budget)
    monkeypatch.setattr(search, "_worker_count", lambda: workers)


def inline(monkeypatch):
    monkeypatch.setattr(search, "_worker_count", lambda: 1)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def batch_starts(families, budget):
    """Index of the first family of each batch, as corpus_verify cuts them."""
    starts, size = [0], 0
    for i, f in enumerate(families):
        size += f.n + 1
        if size >= budget:
            starts.append(i + 1)
            size = 0
    return starts


def mixed_corpus(random_corpus):
    """Random families with a rejected or non-separating one every fifth place."""
    odd = [family_from_masks([1], universe_size=2),  # not validated
           make_family([{0}, {1}]),                  # not union-closed
           make_family([{0, 1}]),                    # not separating
           make_family([{0, 1}, {0, 1, 2}])]         # not separating
    out = []
    for i, f in enumerate(random_corpus[:80]):
        if i % 5 == 0:
            out.append(odd[i // 5 % len(odd)])
        out.append(f)
    return out


CORPORA = [f"all_m{m}" for m in range(5)] + ["random", "mixed"]


@pytest.mark.parametrize("name", CORPORA)
def test_sharded_report_equals_inline(name, monkeypatch, forked, random_corpus):
    if name == "random":
        corpus = random_corpus
    elif name == "mixed":
        corpus = mixed_corpus(random_corpus)
    else:
        corpus = list(enumerate_union_closed(int(name[-1]), family_filter="all"))
    inline(monkeypatch)
    serial = corpus_verify(corpus)
    assert forked == []
    budget = 256 if name == "mixed" else 512
    shard(monkeypatch, budget)
    sharded = corpus_verify(corpus)
    assert_no_children()
    for f in fields(CorpusReport):
        assert getattr(sharded, f.name) == getattr(serial, f.name), f.name
    assert sharded.total_families == len(corpus)
    # A corpus of one batch runs in this process; a larger one in children,
    # all but its last, partial batch.
    starts = batch_starts(corpus, budget)
    assert [len(b) for b in forked] == [b - a for a, b in zip(starts, starts[1:])]
    if name == "mixed":
        def batches_with(accepted):
            return {i for i, batch in enumerate(forked)
                    for f in batch if not accepted(f)}
        assert len(batches_with(lambda f: f.covers_universe
                                and find_union_gap(f) is None)) >= 3
        assert len(batches_with(is_separating)) >= 3
        assert not serial.ok and len(serial.rejections) == 8


def test_one_cpu_threads_or_no_fork_run_in_this_process(monkeypatch, forked):
    corpus = list(enumerate_union_closed(3, family_filter="all"))
    shard(monkeypatch, 16, workers=1)
    assert corpus_verify(corpus).total_families == len(corpus)
    monkeypatch.setattr(search, "_worker_count", lambda: 2)
    release = threading.Event()
    waiting = threading.Thread(target=release.wait, args=(60,))
    waiting.start()
    try:
        assert corpus_verify(corpus).total_families == len(corpus)
    finally:
        release.set()
        waiting.join(60)
    assert not waiting.is_alive()
    monkeypatch.delattr(os, "fork")
    assert corpus_verify(corpus).total_families == len(corpus)
    assert forked == []


def test_the_serial_sweep_holds_one_batch(monkeypatch):
    # Without children the batches still run one after another, so a lazy
    # corpus has given no more than one batch when the battery first runs.
    drawn = []
    at_first_check = []

    def lazy():
        for f in enumerate_union_closed(3, family_filter="all"):
            drawn.append(f)
            yield f
    real = search.find_union_gap

    def checking(f):
        if not at_first_check:
            at_first_check.append(len(drawn))
        return real(f)
    monkeypatch.setattr(search, "find_union_gap", checking)
    shard(monkeypatch, 16, workers=1)
    rep = corpus_verify(lazy())
    corpus = list(enumerate_union_closed(3, family_filter="all"))
    assert rep.total_families == len(drawn) == len(corpus)
    assert len(at_first_check) == 1 and at_first_check[0] <= batch_starts(corpus, 16)[1]


def test_a_familys_lines_stay_together_within_a_batch(monkeypatch, forked):
    # Each family gets a chain line and a transversal line: the report
    # gives both lines of the first family before those of the second.
    a = make_family([{0}, {1}, {0, 1}])
    b = make_family([{0}, {0, 1}])
    real_chain, real_transversal = search.falgas_ravry_chain, search.minimal_transversal

    def short_chain(f):
        w = real_chain(f)
        return replace(w, chain=w.chain[:-1])

    def foreign_pattern(f):
        # The top pattern's member gets one id past the universe.
        tr = real_transversal(f)
        top = max(tr.pb_family)
        return replace(tr, pb_family={**tr.pb_family, top: (1 << f.universe_size + 1) - 1})
    monkeypatch.setattr(search, "falgas_ravry_chain", short_chain)
    monkeypatch.setattr(search, "minimal_transversal", foreign_pattern)
    expected = [
        ("{{0},{1},{0,1}}", "chain: chain has 1 entries, expected 2"),
        ("{{0},{1},{0,1}}", "transversal: pattern member for 0x3 is not a member"),
        ("{{0},{0,1}}", "chain: chain has 1 entries, expected 2"),
        ("{{0},{0,1}}", "transversal: pattern member for 0x1 is not a member"),
    ]
    inline(monkeypatch)
    assert corpus_verify([a, b]).invariant_failures == expected
    shard(monkeypatch, a.n + b.n + 2, workers=2)
    assert corpus_verify([a, b]).invariant_failures == expected
    assert forked == [[a, b]]
    assert_no_children()


def test_the_first_family_to_raise_wins_whatever_its_stage(monkeypatch, forked):
    # In one batch, an earlier family raises in minimal_transversal, a later
    # one in falgas_ravry_chain, and a line after both is malformed: the
    # earliest family's error is raised, serially and in a child.
    families = list(dict.fromkeys(enumerate_union_closed(3)))[:12]
    early, late = families[3], families[7]

    def raising_on(target, real):
        def raising(f):
            if f == target:
                raise ContradictionError(f"planted on {family_label(f)}")
            return real(f)
        return raising
    monkeypatch.setattr(search, "minimal_transversal",
                        raising_on(early, search.minimal_transversal))
    monkeypatch.setattr(search, "falgas_ravry_chain",
                        raising_on(late, search.falgas_ravry_chain))
    corpus = [_Line(i, family_to_ndjson(f)) for i, f in enumerate(families, start=1)]
    corpus.insert(9, _Line(99, "{not json}"))
    inline(monkeypatch)
    with pytest.raises(ContradictionError) as serial:
        corpus_verify(corpus)
    shard(monkeypatch, sum(f.n + 1 for f in families), workers=2)
    with pytest.raises(ContradictionError) as sharded:
        corpus_verify(corpus)
    assert str(serial.value) == str(sharded.value) == f"planted on {family_label(early)}"
    assert forked == [corpus]
    assert_no_children()


def test_a_batch_error_no_family_repeats_is_raised(monkeypatch):
    # The third separation test of the batch raises, and none after it
    # does, so replaying the families one at a time raises nothing: the
    # batch's own exception is the one raised, as for a MemoryError that
    # only the whole batch runs into.
    families = [f for f in enumerate_union_closed(3) if f.n >= 1][:5]
    calls = []

    def third_raises(f):
        calls.append(f)
        if len(calls) == 3:
            raise MemoryError("planted on the third call")
        return is_separating(f)
    monkeypatch.setattr(search, "is_separating", third_raises)
    with pytest.raises(MemoryError, match="planted on the third call"):
        search._verify_batch(families)
    assert calls == families[:3] + families


# Random families at m = 13 and 16: theorem-band, lemma and not-covered.
GAP_FAMILIES = [(13, 6, seed) for seed in (4, 19, 26)] + [(16, 10, seed) for seed in range(3)]


def test_a_valid_corpus_computes_no_theorem_gap(monkeypatch, forked):
    # The battery asks for a verdict only for a family without a Frankl
    # element, so no process computes a theorem gap or any other part of the
    # threshold calculus for a valid corpus, serially or sharded.
    def computed(*args):
        raise AssertionError(f"threshold calculus computed for {args}")
    monkeypatch.setattr(bounds, "_theorem_gap", computed)
    monkeypatch.setattr(bounds, "f_m", computed)
    families = [random_family(*args) for args in GAP_FAMILIES]
    families += [random_family(16, 10, 7 + i) for i in range(60)]
    lines = [_Line(i, family_to_ndjson(f)) for i, f in enumerate(families, start=1)]
    inline(monkeypatch)
    serial = corpus_verify(families)
    assert serial.ok and serial.separating_count == len(families)
    assert corpus_verify(lines) == serial
    assert forked == []
    shard(monkeypatch, 512)
    for corpus in (families, lines):
        assert corpus_verify(corpus) == serial
    assert len(forked) >= 4


def test_the_alarm_computes_its_gap_in_the_child(monkeypatch, forked):
    # With every witness set emptied, each covered family alarms.  The
    # families at m >= 13 are all in forked batches, so their theorem gaps
    # are computed in the children, on demand, and never in the parent.
    bounds._theorem_gap.cache_clear()
    monkeypatch.setattr(search, "frankl_witnesses", lambda f: [])
    monkeypatch.setattr(bounds, "frankl_witnesses", lambda f: [])
    corpus = [random_family(*args) for args in GAP_FAMILIES]
    corpus += list(enumerate_union_closed(3))
    shard(monkeypatch, 64)
    sharded = corpus_verify(corpus)
    assert bounds._theorem_gap.cache_info().misses == 0
    assert len(forked) >= 4
    in_children = [f for batch in forked for f in batch]
    assert all(f in in_children for f in corpus[:len(GAP_FAMILIES)])
    inline(monkeypatch)
    assert corpus_verify(corpus) == sharded
    alarmed = {label for label, line in sharded.invariant_failures
               if line.startswith("applicability: ")}
    # m = 13: theorem, lemma, theorem; m = 16: not covered, so no alarm.
    assert [family_label(f) in alarmed for f in corpus[:len(GAP_FAMILIES)]] \
        == [True] * 3 + [False] * 3


def test_no_pool_modules_are_loaded():
    # The test process has concurrent.futures loaded already (hypothesis
    # imports it), so the sweep runs in a fresh interpreter.
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from ucsets import search\n"
        "search.BATCH_MEMBERS = 64\n"
        "search._worker_count = lambda: 2\n"
        "forks = []\n"
        "real = search._fork\n"
        "search._fork = lambda batch: forks.append(batch) or real(batch)\n"
        "rep = search.corpus_verify(search.enumerate_union_closed(3))\n"
        "print(len(forks), rep.ok, sorted(m for m in sys.modules\n"
        "      if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
    )
    src = str(Path(ucsets.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", script, src], capture_output=True,
                          text=True, timeout=60, check=True)
    forks, ok, loaded = done.stdout.split(" ", 2)
    assert int(forks) >= 2 and ok == "True"
    assert loaded.strip() == "[]"


def test_parser_loads_no_exact_arithmetic():
    # The threshold calculus imports decimal when it first computes a
    # theorem gap; building the CLI parser must pay for no exact arithmetic.
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from ucsets.cli import build_parser\n"
        "build_parser()\n"
        "print(sorted(m for m in ('fractions', 'decimal') if m in sys.modules))\n"
    )
    src = str(Path(ucsets.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", script, src], capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


# -- failures ------------------------------------------------------------

BUDGET = 64


@pytest.fixture()
def m3_corpus(tmp_path):
    """The m = 3 separating corpus as NDJSON, with its families."""
    families = list(enumerate_union_closed(3))
    path = tmp_path / "corpus.ndjson"
    path.write_text("".join(family_to_ndjson(f) + "\n" for f in families))
    return path, families


def plant(monkeypatch, path, families, contradiction_batch, bad_line_batch):
    """Make minimal_transversal raise on the second family of one batch,
    and put a malformed line in the middle of another."""
    starts = batch_starts(families, BUDGET)
    assert len(starts) > 4
    if contradiction_batch is not None:
        target = families[starts[contradiction_batch] + 1]
        real = search.minimal_transversal

        def raising(f):
            if f == target:
                raise ContradictionError(f"planted on {f.members}")
            return real(f)
        monkeypatch.setattr(search, "minimal_transversal", raising)
    lines = path.read_text().splitlines(keepends=True)
    bad = (starts[bad_line_batch] + starts[bad_line_batch + 1]) // 2
    lines.insert(bad, "{not json\n")
    path.write_text("".join(lines))


@pytest.mark.parametrize("contradiction_batch, code", [
    (0, 3),     # a child raises before the corpus does
    (2, 3),     # a child raises on the batch of the bad line, before that line
    (None, 1),  # the corpus raises
])
def test_first_failure_in_corpus_order_wins(contradiction_batch, code, capsys,
                                            monkeypatch, forked, m3_corpus):
    path, families = m3_corpus
    plant(monkeypatch, path, families, contradiction_batch, 2)
    argv = ["verify", "--input", str(path)]
    inline(monkeypatch)
    assert main(argv) == code
    serial = capsys.readouterr()
    shard(monkeypatch, BUDGET, workers=2)
    assert main(argv) == code
    assert capsys.readouterr() == serial
    assert serial.out == "" and "Traceback" not in serial.err
    assert serial.err.startswith("internal contradiction: planted" if code == 3
                                 else "error: line ")
    # Every batch is forked, the bad line's too, until the parent collects
    # the batch of the first failure, once two later batches are full.
    first = 0 if contradiction_batch == 0 else 2
    assert len(forked) == first + 2
    assert_no_children()


def write_ndjson(path, families):
    path.write_text("".join(family_to_ndjson(f) + "\n" for f in families))


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("budget", [256, 512])
def test_sharded_ndjson_input_gives_the_inline_report(budget, workers, capsys, monkeypatch,
                                                      forked, random_corpus, tmp_path):
    corpus = mixed_corpus(random_corpus)
    path = tmp_path / "mixed.ndjson"
    write_ndjson(path, corpus)
    argv = ["verify", "--input", str(path), "--format", "json"]
    inline(monkeypatch)
    expected = to_json(corpus_to_json(corpus_verify(corpus))) + "\n"
    assert main(argv) == 3
    assert capsys.readouterr() == (expected, "")
    assert forked == []
    shard(monkeypatch, budget, workers)
    assert main(argv) == 3
    assert capsys.readouterr() == (expected, "")
    assert_no_children()
    # Each line weighs its member count, so the batches are cut where the
    # families' n + 1 cuts them, and every family reaches a child undecoded.
    starts = batch_starts(corpus, budget)
    assert [len(b) for b in forked] == [b - a for a, b in zip(starts, starts[1:])]
    assert all(type(line) is _Line for batch in forked for line in batch)


@pytest.mark.parametrize("where", ["first-line", "forked", "tail"])
def test_a_malformed_line_fails_as_in_one_process(where, capsys, monkeypatch, forked,
                                                  m3_corpus):
    path, families = m3_corpus
    starts = batch_starts(families, BUDGET)
    lines = path.read_text().splitlines(keepends=True)
    # "{not json}" opens and closes as one object, so even as line 1 it is
    # not decoded while the input is read.
    at = {"first-line": 0, "forked": starts[1] + 1, "tail": starts[-1] + 1}[where]
    assert at < len(lines)
    lines.insert(at, "{not json}\n")
    path.write_text("".join(lines))
    argv = ["verify", "--input", str(path)]
    inline(monkeypatch)
    assert main(argv) == 1
    serial = capsys.readouterr()
    assert serial.out == ""
    assert serial.err.startswith(f"error: line {at + 1}: invalid JSON: ")
    shard(monkeypatch, BUDGET, workers=2)
    assert main(argv) == 1
    assert capsys.readouterr() == serial
    assert_no_children()
    in_child = any(line.lineno == at + 1 for batch in forked for line in batch)
    assert in_child == (where != "tail")


@pytest.mark.parametrize("text, error", [
    ("{not json}", FamilyParseError),
    ('{"members":[[0]', UnfinishedJSONError),
    ('{"members":[[0,0]],"universe_size":1}', FamilyParseError),
], ids=["not-json", "unfinished", "repeated-id"])
def test_a_decode_error_in_a_child_keeps_its_type_message_and_line(text, error,
                                                                   monkeypatch, forked):
    family = '{"members":[[0],[1],[0,1]],"universe_size":2}'
    corpus = [_Line(i, family) for i in range(1, 40)]
    corpus.insert(2, _Line(99, text))
    inline(monkeypatch)
    with pytest.raises(FamilyParseError) as serial:
        corpus_verify(corpus)
    shard(monkeypatch, 16, workers=2)
    with pytest.raises(FamilyParseError) as sharded:
        corpus_verify(corpus)
    assert_no_children()
    assert corpus[2] in forked[0]
    assert type(sharded.value) is type(serial.value) is error
    assert str(sharded.value) == str(serial.value)
    assert str(serial.value).startswith("line 99: ")
    assert sharded.value.line == serial.value.line == 99


@pytest.mark.parametrize("death, how", [
    (lambda: os._exit(7), "exited with status 7"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"killed by signal {signal.SIGKILL}"),
], ids=["exit-7", "sigkill"])
def test_a_child_that_dies_is_an_error(death, how, capsys, monkeypatch, forked):
    parent = os.getpid()
    real = search._verify_batch

    def dying(families):
        if os.getpid() != parent:
            death()
        return real(families)
    monkeypatch.setattr(search, "_verify_batch", dying)
    shard(monkeypatch, BUDGET, workers=2)
    assert main(["verify", "--m", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: verify worker process ") and how in err
    assert "Traceback" not in err
    assert forked
    assert_no_children()


def test_children_never_flush_the_parents_stdout(tmp_path, monkeypatch, forked):
    argv = ["verify", "--m", "3", "--filter", "all", "--format", "json"]
    inline(monkeypatch)
    expected = tmp_path / "expected.json"
    with open(expected, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        assert main(argv) == 0
    shard(monkeypatch, BUDGET, workers=2)
    out = tmp_path / "out.json"
    with open(out, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        fh.write("written before the sweep, not flushed\n")
        assert main(argv) == 0
    assert len(forked) >= 2
    assert out.read_text(encoding="utf-8") == (
        "written before the sweep, not flushed\n" + expected.read_text(encoding="utf-8"))
    assert_no_children()
