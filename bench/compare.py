"""Compare two benchmark result files, or print the ROADMAP baseline table.

    python3 bench/compare.py BASE NEW
    python3 bench/compare.py RESULTS

Each file holds the NDJSON records ``run.py --out FILE`` appends, one per
run.  Records of the same workload and trace mode are reduced to the median
of each metric across their runs (seeds included, so compare files made
with the same seeds).  The first table has one row per workload with every
end-to-end metric (trace 0 records) as new value, ratio new/base and base.
The second lists every per-layer metric (trace 1 records) with base, new,
delta and ratio.  With one file, the ROADMAP baseline rows are derived
from its medians.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> tuple[dict[tuple[str, int], dict[str, float]], dict[str, str]]:
    """(workload, trace) -> metric -> median across records; and metric units."""
    values: dict[tuple[str, int], dict[str, list[float]]] = {}
    units: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            slot = values.setdefault((rec["workload"], rec["trace"]), {})
            for name, m in rec["result"]["metrics"].items():
                slot.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
    medians = {key: {k: statistics.median(v) for k, v in slot.items()}
               for key, slot in values.items()}
    return medians, units


def ratio(new: float, base: float) -> str:
    return f"x{new / base:.3f}" if base else "n/a"


def cell(new: float | None, base: float | None) -> str:
    if new is None or base is None:
        return "missing"
    return f"{new:.4g} ({ratio(new, base)} of {base:.4g})"


def compare(base_path: str, new_path: str, out: Any = sys.stdout) -> None:
    base, units = load(base_path)
    new, new_units = load(new_path)
    units.update(new_units)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    e2e = [m["name"] for m in spec["end_to_end"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = sorted({w for w, _ in base} | {w for w, _ in new})

    header = ["workload"] + [f"{name} [{units.get(name, '?')}, {better[name]}]" for name in e2e]
    print("| " + " | ".join(header) + " |", file=out)
    print("|" + "---|" * len(header), file=out)
    for w in workloads:
        b, n = base.get((w, 0), {}), new.get((w, 0), {})
        row = [w] + [cell(n.get(name), b.get(name)) for name in e2e]
        print("| " + " | ".join(row) + " |", file=out)

    print(file=out)
    print("| workload | per-layer metric | unit | base | new | delta | ratio |", file=out)
    print("|---|---|---|---|---|---|---|", file=out)
    for w in workloads:
        b, n = base.get((w, 1), {}), new.get((w, 1), {})
        for name in sorted(set(b) | set(n)):
            bv, nv = b.get(name), n.get(name)
            if bv is None or nv is None:
                print(f"| {w} | {name} | {units.get(name, '?')} | {bv} | {nv} | | missing |",
                      file=out)
                continue
            print(f"| {w} | {name} | {units.get(name, '?')} | {bv:.4g} | {nv:.4g} "
                  f"| {nv - bv:+.4g} | {ratio(nv, bv)} |", file=out)


# (ROADMAP row, ROADMAP figure, how the harness gives it, value from medians)
# random_m16 verifies 300 families and large_m64 two, so those rows scale.
ROADMAP_ROWS = (
    ("`corpus_verify`, separating m<=4 corpus (4404 families)", "1.66 s",
     "exhaustive_m4: 4404 / families_per_s (CLI verify, parse included)",
     lambda e, t: 4404 / e["exhaustive_m4"]["families_per_s"]),
    ("`corpus_verify`, random corpus (1000 families, m=16, 10 generators)", "5.39 s",
     "random_m16: 1000 / families_per_s",
     lambda e, t: 1000 / e["random_m16"]["families_per_s"]),
    ("CLI `verify --random --m 16 --count 1000`", "6.5 s",
     "random_m16: pipeline_s x 1000/300 + setup_s (random, then verify --input)",
     lambda e, t: e["random_m16"]["pipeline_s"] * 1000 / 300 + e["random_m16"]["setup_s"]),
    ("CLI `enumerate --m 4`", "0.70 s",
     "exhaustive_m4: generate_s + setup_s (interpreter start excluded)",
     lambda e, t: e["exhaustive_m4"]["generate_s"] + e["exhaustive_m4"]["setup_s"]),
    ("CLI `verify --input` on that NDJSON", "2.28 s",
     "exhaustive_m4: 4404 / families_per_s + setup_s",
     lambda e, t: 4404 / e["exhaustive_m4"]["families_per_s"] + e["exhaustive_m4"]["setup_s"]),
    ("`is_union_closed`, single family m=64, 20 generators, n=5040", "2.08 s",
     "large_m64 traced: family.union_check.self_s / 2 (n in 4900..5200)",
     lambda e, t: t["large_m64"]["family.union_check.self_s"] / 2),
    ("`corpus_verify`, that same family", "3.87 s",
     "large_m64: 1 / families_per_s",
     lambda e, t: 1 / e["large_m64"]["families_per_s"]),
)


def roadmap_table(path: str, out: Any = sys.stdout) -> None:
    medians, _ = load(path)
    e2e = {w: m for (w, trace), m in medians.items() if trace == 0}
    traced = {w: m for (w, trace), m in medians.items() if trace == 1}
    print("| ROADMAP workload | ROADMAP | harness | harness value |", file=out)
    print("|---|---|---|---|", file=out)
    for row, figure, how, value in ROADMAP_ROWS:
        try:
            shown = f"{value(e2e, traced):.3g} s"
        except KeyError:
            shown = "not in file"
        print(f"| {row} | {figure} | {how} | {shown} |", file=out)


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        roadmap_table(argv[0])
    elif len(argv) == 2:
        compare(argv[0], argv[1])
    else:
        print("usage: compare.py BASE NEW | compare.py RESULTS", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
