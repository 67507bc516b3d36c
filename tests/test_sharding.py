"""corpus_verify over forked batches: the same report and the same failures
as the sweep in one process, and no child left behind."""

import contextlib
import os
import signal
import subprocess
import sys
import threading
from dataclasses import fields
from pathlib import Path

import pytest

import ucsets
from ucsets import (
    ContradictionError,
    corpus_verify,
    enumerate_union_closed,
    family_from_masks,
    find_union_gap,
    is_separating,
    make_family,
)
from ucsets import search
from ucsets.cli import main
from ucsets.formats import family_to_ndjson
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
    (2, 3),     # the partial batch, verified here, raises before the corpus does
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
    assert len(forked) == 2
    assert_no_children()


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
