"""End-to-end benchmark of the ucsets verification pipeline.

    python3 bench/run.py --workload NAME|all [--seed N] [--seconds S]
                         [--trace 0|1] [--out FILE] [--spans FILE]

A run drives the two commands a user runs, in-process through
``ucsets.cli.main`` and one after the other (a closed loop with one client):

    ucsets <enumerate|random> ... --format json > corpus.ndjson
    ucsets verify --input corpus.ndjson --format json > report.json

It repeats that pipeline on the same inputs until --seconds have passed
(at least MIN_REPS times, or MIN_TRACED_PAIRS pairs when traced) and
reports medians.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  With --trace 0 the metrics are the end-to-end ones.  With
--trace 1 the run alternates untraced and traced pipelines and reports the
per-layer metrics, taken from spans around each layer's public functions
(see tracer.py), plus the tracing overhead.

The program is imported from src/ of the checkout the script sits in.  The
exit code is 0 when every check passed, 1 when a correctness check failed
(the result line is still printed) and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 7
MIN_REPS = 3          # untraced pipelines per --trace 0 run
MIN_TRACED_PAIRS = 2  # untraced + traced pipeline pairs per --trace 1 run
SETUP_PER_REP = 2     # set-up samples taken before each untraced pipeline

RANDOM_M16_COUNT = 300
LARGE_M64_COUNT = 2
# large_m64 keeps the first seeds at or after --seed whose family has a
# member count in this band.  Verify time grows with n squared and n ranges
# over 4 200..9 600 across seeds, so without the band runs with different
# seeds would not measure the same amount of work.  Seed 7 (n = 5 040, the
# ROADMAP reference family) lies inside it.
LARGE_M64_BAND = (4900, 5200)

EXHAUSTIVE_M4_CODES = 1 << 16  # subfamily codes the m=4 scan walks
OEIS_A102896_M4 = 2480         # Moore families on 4 points


# -- workloads ----------------------------------------------------------

MASK64 = (1 << 64) - 1


def closure_size(m: int, generators: int, seed: int) -> int:
    """Member count of ``random_family(m, generators, seed)``, computed here.

    Redraws the generators from the documented splitmix64 recipe and closes
    them under union.  Compressing and merging duplicate columns keep the
    member count, so this is the family's n.  Independent of ucsets.
    """
    x = seed & MASK64
    full = (1 << m) - 1
    drawn: list[int] = []
    while len(drawn) < generators:
        x = (x + 0x9E3779B97F4A7C15) & MASK64
        z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        v = (z ^ (z >> 31)) & full
        if v:
            drawn.append(v)
    closed: set[int] = set()
    for g in drawn:
        if g not in closed:
            closed |= {g | c for c in closed}
            closed.add(g)
    return len(closed)


def banded_seeds(seed: int) -> list[int]:
    lo, hi = LARGE_M64_BAND
    out: list[int] = []
    s = seed
    while len(out) < LARGE_M64_COUNT:
        if lo <= closure_size(64, 20, s) <= hi:
            out.append(s)
        s += 1
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    families: int
    generate: Callable[[int], list[list[str]]]
    seeded: bool = True
    band: tuple[int, int] | None = None  # required member count per family
    scanned: int | None = None  # candidates the generator examines, if not `families`


def _enumerate_m4(seed: int) -> list[list[str]]:
    return [["enumerate", "--m", "4", "--format", "json"]]


def _random_m16(seed: int) -> list[list[str]]:
    return [["random", "--m", "16", "--generators", "10", "--seed", str(seed),
             "--count", str(RANDOM_M16_COUNT), "--format", "json"]]


def _large_m64(seed: int) -> list[list[str]]:
    return [["random", "--m", "64", "--generators", "20", "--seed", str(s),
             "--format", "json"] for s in banded_seeds(seed)]


WORKLOADS = {
    w.name: w for w in (
        # The exhaustive m<=4 scan: per-call overhead on 4 404 tiny families
        # and the 65 536-code scan; large-family kernels do almost no work.
        Workload("exhaustive_m4", 4404, _enumerate_m4, seeded=False,
                 scanned=EXHAUSTIVE_M4_CODES),
        # Hundreds of ~90-member families over 16 elements: repeated
        # frequency/labeling work and NDJSON volume dominate.
        Workload("random_m16", RANDOM_M16_COUNT, _random_m16),
        # A few ~5 000-member families over 64 elements: the quadratic
        # pairwise union check dominates.
        Workload("large_m64", LARGE_M64_COUNT, _large_m64, band=LARGE_M64_BAND),
    )
}

# Digests at DEFAULT_SEED (exhaustive_m4 ignores the seed, so its pin holds
# for every seed).  sha256 of the corpus NDJSON bytes and of the verify
# report bytes.
PINS: dict[str, dict[str, str]] = {
    "exhaustive_m4": {
        "corpus": "6fdfee0d159d424238f7fb3c14786922a707cca1ae19d18fe58c85ed9bd0d901",
        "report": "070c71c352161f963616ca2144529bdc330581a2dbf8067c34d1d443eda3db50",
    },
    "random_m16": {
        "corpus": "44f2c1ec5e26882e80f68438a2ba5081670d9dca90029149409352c3ec4c0415",
        "report": "2b398b1bd6e4633c813be2e8e9412ba7c23bb8646eca145ae56df796cc836ea8",
    },
    "large_m64": {
        "corpus": "3e6456ac2d8a772edf6b32d52c4f595548504e4308acfc4ce0c3ccd5148186b1",
        "report": "97cc833bb0d47e23416b64093bc0fe389371f4302a80cf69f34abfa6e714cc66",
    },
}


# -- program -------------------------------------------------------------

def import_program() -> Any:
    if not (SRC / "ucsets" / "cli.py").is_file():
        print(f"bench: ucsets sources not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import ucsets.cli
    return ucsets.cli


SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import ucsets.cli\n"
    "ucsets.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def measure_setup() -> float:
    """Import-and-parser time in a fresh interpreter, timed inside it.

    Samples are spread over the run, between pipelines, so their median sees
    the same machine conditions as the pipeline medians.
    """
    done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout.strip().splitlines()[-1])


def cross_check_m4() -> bool:
    """enumerate_union_closed(4, "all") must give 2 x A102896(4) families.

    Every union-closed subfamily of P([4]) either contains the empty set or
    not, and adding or removing it is a bijection, so the count is twice the
    number of Moore families on 4 points (OEIS A102896: 2 480).
    """
    from ucsets.search import enumerate_union_closed
    count = sum(1 for _ in enumerate_union_closed(4, family_filter="all"))
    return count == 2 * OEIS_A102896_M4


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


@dataclass
class Rep:
    generate_s: float
    verify_s: float
    failed: int
    corpus_sha: str
    report_sha: str
    corpus_bytes: int
    reasons: list[str]

    @property
    def pipeline_s(self) -> float:
        return self.generate_s + self.verify_s


def run_cli(cli: Any, argv: list[str], out: Path, mode: str) -> tuple[int, float, str | None]:
    """One CLI call with stdout sent to a file; returns code, seconds, error."""
    t0 = time.perf_counter()
    try:
        with open(out, mode, encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            rc = cli.main(argv)
    except Exception as exc:  # a raising command fails all its families
        return -1, time.perf_counter() - t0, f"{argv[0]} raised {exc!r}"
    return rc, time.perf_counter() - t0, None


def run_pipeline(cli: Any, work: Path, commands: list[list[str]], families: int,
                 band: tuple[int, int] | None) -> Rep:
    corpus = work / "corpus.ndjson"
    report = work / "report.json"
    reasons: list[str] = []
    generate_s = 0.0
    for i, argv in enumerate(commands):
        rc, secs, err = run_cli(cli, argv, corpus, "w" if i == 0 else "a")
        generate_s += secs
        if err or rc != 0:
            reasons.append(err or f"{argv[0]} exited {rc}")
    rc, verify_s, err = run_cli(cli, ["verify", "--input", str(corpus), "--format", "json"],
                                report, "w")
    if err or rc != 0:
        reasons.append(err or f"verify exited {rc}")

    try:
        doc = json.loads(report.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        reasons.append(f"report unreadable: {exc}")
        doc = {}
    counts = [doc.get(k) for k in ("total_families", "union_closed_count", "separating_count")]
    if counts != [families] * 3:
        reasons.append(f"family counts {counts}, expected {families}")
    if doc.get("ok") is not True:
        reasons.append("report is not ok")
    bad = {entry if isinstance(entry, str) else entry[0]
           for key in ("frankl_violations", "invariant_failures",
                       "audit_failures", "rejections")
           for entry in doc.get(key, [])}
    failed = len(bad)
    if band is not None:
        with open(corpus, encoding="utf-8") as fh:
            sizes = [len(json.loads(line)["members"]) for line in fh if line.strip()]
        if any(not band[0] <= n <= band[1] for n in sizes):
            reasons.append(f"family sizes {sizes} outside the band {band}")
    if reasons:
        failed = families
    return Rep(generate_s, verify_s, failed, sha256_file(corpus),
               sha256_file(report), corpus.stat().st_size, reasons)


# -- metrics ---------------------------------------------------------------

E2E_UNITS = {
    "pipeline_s": "s",
    "generate_s": "s",
    "families_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def end_to_end(reps: list[Rep], families: int, setup: list[float]) -> dict[str, float]:
    return {
        "pipeline_s": statistics.median(r.pipeline_s for r in reps),
        "generate_s": statistics.median(r.generate_s for r in reps),
        "families_per_s": statistics.median(families / r.verify_s for r in reps),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


LAYER_GROUPS = (
    "family.union_check", "family.frequencies", "family.separation",
    "family.closure", "witnesses.chain", "witnesses.transversal",
    "witnesses.audit", "bounds.applicability", "search.generate",
    "search.corpus_verify", "formats.parse", "formats.serialize", "cli",
)
# per-family call counts: metric -> the span name counted under verify
PER_FAMILY_CALLS = {
    "family.frequencies.calls_per_family": "family.element_frequencies",
    "witnesses.chain.calls_per_family": "witnesses.falgas_ravry_chain",
    "witnesses.transversal.calls_per_family": "witnesses.minimal_transversal",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def layer_metrics(tracer: Any, rep: Rep, workload: Workload) -> dict[str, float]:
    s = tracer.summary()
    out: dict[str, float] = {}
    for group in LAYER_GROUPS:
        out[f"{group}.self_s"] = s["self_s"].get(group, 0.0)
    calls = s["calls"]
    for metric, span in PER_FAMILY_CALLS.items():
        out[metric] = calls.get(("cli.cmd_verify", span), 0) / workload.families
    out["family.union_check.pairs"] = float(tracer.union_pairs)
    out["bounds.bound_report.calls"] = float(sum(
        c for (_, span), c in calls.items() if span == "bounds.bound_report"))
    # random_family turns every seed it is given into one family
    out["search.scan_yield_ratio"] = workload.families / (workload.scanned or workload.families)
    out["formats.bytes_read"] = float(rep.corpus_bytes)
    out["formats.bytes_written"] = float(tracer.bytes_serialized)
    return out


def latency_metrics(seconds: list[float]) -> dict[str, float]:
    """Per-family verify latency, pooled over every traced pipeline of a run."""
    lat_ms = [x * 1000.0 for x in seconds]
    return {
        "search.family_ms.p50": statistics.median(lat_ms),
        "search.family_ms.p99": percentile(lat_ms, 99),
        "search.family_ms.samples": float(len(lat_ms)),
    }


LAYER_UNITS = {
    "pairs": "pairs-computed",
    "calls_per_family": "calls/family",
    "calls": "count",
    "scan_yield_ratio": "ratio",
    "p50": "ms",
    "p99": "ms",
    "samples": "count",
    "bytes_read": "bytes",
    "bytes_written": "bytes",
    "self_s": "s",
    "trace_overhead_ratio": "ratio",
}


def layer_unit(name: str) -> str:
    return LAYER_UNITS[name.rsplit(".", 1)[-1]]


# -- main --------------------------------------------------------------------

@dataclass
class Measured:
    plain: list[Rep] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    traced: list[tuple[Rep, dict[str, float]]] = field(default_factory=list)
    family_seconds: list[float] = field(default_factory=list)


def measure(cli: Any, workload: Workload, commands: list[list[str]], work: Path,
            seconds: float, tracer: Any) -> Measured:
    """Repeat the pipeline for `seconds`: untraced, or untraced/traced pairs."""
    m = Measured()

    def pipeline() -> Rep:
        return run_pipeline(cli, work, commands, workload.families, workload.band)

    def traced_pipeline() -> None:
        tracer.reset()
        with tracer:
            rep = pipeline()
        m.traced.append((rep, layer_metrics(tracer, rep, workload)))
        m.family_seconds.extend(tracer.family_seconds)

    least = MIN_REPS if tracer is None else MIN_TRACED_PAIRS
    start = time.perf_counter()
    while len(m.plain) < least or time.perf_counter() - start < seconds:
        if tracer is None:
            m.setup.extend(measure_setup() for _ in range(SETUP_PER_REP))
            m.plain.append(pipeline())
        elif len(m.plain) % 2 == 0:
            # Alternate which of a pair goes first, so drift in machine
            # speed does not bias trace_overhead_ratio.
            m.plain.append(pipeline())
            traced_pipeline()
        else:
            traced_pipeline()
            m.plain.append(pipeline())
    return m


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process and print each metric by name."""
    ok = True
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            argv += ["--out", args.out]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if not lines:
            print(f"{name}: no result (exit code {done.returncode})")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and done.returncode == 0 and result["correct"]
        for metric, m in sorted(result["metrics"].items()):
            print(f"{name:<14} {metric:<40} {m['value']:<12.6g} {m['unit']}")
        print(f"{name:<14} correct={str(result['correct']).lower()} "
              f"failed={result['failed']} attempted={result['attempted']}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="a workload, or all of them, each in its own process")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None,
                    help="append a result record (NDJSON) to this file")
    ap.add_argument("--spans", default=None,
                    help="write the spans of the last traced pipeline to this file "
                         "(single workload only)")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    cli = import_program()
    workload = WORKLOADS[args.workload]
    reasons: list[str] = []
    if not cross_check_m4():
        reasons.append("enumerate_union_closed(4, 'all') does not give 2 x A102896(4)")

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    work = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        m = measure(cli, workload, workload.generate(args.seed), work, args.seconds, tracer)
        if tracer is not None and args.spans:
            tracer.write_spans(args.spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    plain, traced = m.plain, m.traced

    reps = plain + [rep for rep, _ in traced]
    for rep in reps:
        reasons.extend(rep.reasons)
    for rep in reps[1:]:
        if (rep.corpus_sha, rep.report_sha) != (reps[0].corpus_sha, reps[0].report_sha):
            reasons.append("corpus or report bytes differ between pipelines "
                           "(traced and untraced included)")
            rep.failed = workload.families
    pin = PINS[workload.name]
    if not workload.seeded or args.seed == DEFAULT_SEED:
        if (reps[0].corpus_sha, reps[0].report_sha) != (pin["corpus"], pin["report"]):
            reasons.append(f"digests at seed {args.seed} differ from the pins: "
                           f"corpus {reps[0].corpus_sha}, report {reps[0].report_sha}")
            for rep in reps:
                rep.failed = workload.families

    attempted = workload.families * len(reps)
    failed = sum(r.failed for r in reps)
    if args.trace == 0:
        values = end_to_end(plain, workload.families, m.setup)
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    else:
        names = traced[0][1].keys()
        values = {k: statistics.median(layers[k] for _, layers in traced) for k in names}
        values.update(latency_metrics(m.family_seconds))
        values["trace_overhead_ratio"] = (
            statistics.median(r.pipeline_s for r, _ in traced)
            / statistics.median(r.pipeline_s for r in plain))
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}

    correct = not reasons and failed == 0
    for reason in dict.fromkeys(reasons):
        print(f"bench: {reason}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.out:
        record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "reps": len(plain), "traced_reps": len(traced),
                  "pipeline_s_reps": [r.pipeline_s for r in plain],
                  "python": platform.python_version(), "cpus": os.cpu_count(),
                  "result": result}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
