"""Tests of the benchmark itself; not part of the package's test suite.

    python3 -m pytest -q bench/test_bench.py

The smoke runs take under a minute on two cores.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import BOUNDARIES, Tracer  # noqa: E402

cli = run.import_program()
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bindings() -> dict[tuple[str, str], object]:
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if name == "ucsets" or name.startswith("ucsets.")
            for attr, value in vars(mod).items()}


def test_tracer_restores_every_rebound_attribute():
    before = _bindings()
    with Tracer() as tracer:
        rebound = set(tracer.rebound)
        during = _bindings()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # Every boundary is rebound where it is defined and where it is imported.
    for mod, funcs in BOUNDARIES.items():
        for func in funcs:
            assert (mod, func) in rebound
    assert ("ucsets.search", "find_union_gap") in rebound
    assert ("ucsets.bounds", "falgas_ravry_chain") in rebound
    assert ("ucsets.cli", "corpus_verify") in rebound
    assert all(during[k] is not before[k] for k in rebound)
    # Hot helpers stay unwrapped.
    for helper in (("ucsets.family", "elements_of"), ("ucsets.family", "relabel_mask"),
                   ("ucsets.witnesses", "_top_element")):
        assert helper not in rebound


SMALL = [["random", "--m", "16", "--generators", "10", "--seed", "3",
          "--count", "20", "--format", "json"]]


def test_traced_and_untraced_reports_are_byte_identical(tmp_path):
    plain = run.run_pipeline(cli, tmp_path, SMALL, 20, None)
    tracer = Tracer()
    with tracer:
        traced = run.run_pipeline(cli, tmp_path, SMALL, 20, None)
    assert not plain.reasons and not traced.reasons, plain.reasons + traced.reasons
    assert (traced.corpus_sha, traced.report_sha) == (plain.corpus_sha, plain.report_sha)
    assert tracer.summary()["spans"] > 0


def test_metric_names_and_units(tmp_path):
    tracer = Tracer()
    with tracer:
        rep = run.run_pipeline(cli, tmp_path, SMALL, 20, None)
    workload = run.Workload("small", 20, lambda seed: SMALL)
    emitted = (set(run.layer_metrics(tracer, rep, workload))
               | set(run.latency_metrics(tracer.family_seconds)) | {"trace_overhead_ratio"})
    declared_layer = {m["name"] for m in SPEC["per_layer"]}
    declared_e2e = {m["name"] for m in SPEC["end_to_end"]}
    assert emitted == declared_layer
    assert declared_e2e == set(run.E2E_UNITS)
    for m in SPEC["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])
    for m in SPEC["end_to_end"]:
        assert m["unit"] == run.E2E_UNITS[m["name"]]
    for name in emitted | declared_e2e | {w["name"] for w in SPEC["workloads"]}:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run(workload):
    trace = "1" if workload == "exhaustive_m4" else "0"
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seconds", "0", "--trace", trace],
        capture_output=True, text=True, timeout=180, cwd=BENCH.parent)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    section = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
