"""Compare two sets of benchmark results, metric by metric and workload
by workload.

    python3 zkbench/compare.py BASE NEW

``BASE`` and ``NEW`` are result files written by ``run.py --json`` or
directories of them.  For every end-to-end metric of every workload the
report gives each side's median, quartiles and run count, the relative
change of the median, the metric's bound from ``BENCHMARK.json``, the base side's
spread (quartile distance over median) and the share of pairs the new
side won (ties count for neither side).  Runs pair up by seed when both
sides ran the same seeds, otherwise in file order.

Verdicts follow the rule the benchmark was built for:

* ``unresolved`` -- the base spread is wider than the bound, and not
  every new run beats every base run;
* ``regressed``  -- the new median is worse by more than the bound;
* ``improved``   -- the new side won at least nine tenths of the pairs
  and the medians differ by more than the base spread;
* ``same``       -- otherwise.

Per-layer counts and modeled metrics (every unit except seconds per op
and ratios) of runs with the same workload and seed must be identical;
the report lists any that differ.  Exit status 1 means a regression or
a differing count.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Units of measured, noisy per-layer values; every other unit is a
#: count or a modeled number and must repeat exactly.
MEASURED_UNITS = {"s/op", "ratio"}


def load_runs(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for file in files:
        runs.extend(json.loads(file.read_text())["runs"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def pair_up(base: list[dict], new: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {run["seed"]: run for run in new}
    if {run["seed"] for run in base} == set(by_seed):
        return [(run, by_seed[run["seed"]]) for run in base]
    return list(zip(base, new))


def compare_metric(base: list[float], new: list[float], pairs,
                   better: str, bound: float) -> dict:
    sign = 1 if better == "lower" else -1
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    spread = (bq3 - bq1) / bmed
    worse_by = sign * (nmed - bmed) / bmed
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    won = wins / len(pairs) if pairs else 0.0
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if spread > bound and not all_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regressed"
    elif won >= 0.9 and abs(nmed - bmed) > bq3 - bq1:
        verdict = "improved"
    else:
        verdict = "same"
    return {"base": (bmed, bq1, bq3, len(base)),
            "new": (nmed, nq1, nq3, len(new)),
            "change": (nmed - bmed) / bmed,
            "spread": spread, "won": won, "verdict": verdict}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    base_runs, new_runs = load_runs(args.base), load_runs(args.new)
    failing = False

    print(f"{'workload':17s} {'metric':12s} {'base median [q1, q3] n':>32s} "
          f"{'new median [q1, q3] n':>32s} {'change':>8s} {'bound':>6s} "
          f"{'spread':>7s} {'won':>5s}  verdict")
    for spec in config["workloads"]:
        name = spec["name"]
        base = [r for r in base_runs if r["workload"] == name
                and not r["trace"]]
        new = [r for r in new_runs if r["workload"] == name
               and not r["trace"]]
        if not base or not new:
            continue
        pairs = pair_up(base, new)
        for metric in config["end_to_end"]:
            key = metric["name"]
            result = compare_metric(
                [r["metrics"][key]["value"] for r in base],
                [r["metrics"][key]["value"] for r in new],
                [(b["metrics"][key]["value"], n["metrics"][key]["value"])
                 for b, n in pairs],
                metric["better"], metric["bound"])
            failing |= result["verdict"] == "regressed"
            cells = [f"{m:.4g} [{q1:.4g}, {q3:.4g}] {k}"
                     for m, q1, q3, k in (result["base"], result["new"])]
            print(f"{name:17s} {key:12s} {cells[0]:>32s} {cells[1]:>32s} "
                  f"{result['change']:+8.1%} {metric['bound']:6.0%} "
                  f"{result['spread']:7.1%} {result['won']:5.0%}  "
                  f"{result['verdict']}")

    traced_base = {(r["workload"], r["seed"]): r for r in base_runs
                   if r["trace"]}
    checked = differing = 0
    for run in new_runs:
        other = traced_base.get((run["workload"], run["seed"]))
        if not run["trace"] or other is None:
            continue
        for key, entry in run["metrics"].items():
            if entry["unit"] in MEASURED_UNITS:
                continue
            checked += 1
            if entry["value"] != other["metrics"][key]["value"]:
                differing += 1
                print(f"DIFFERS {run['workload']} {key}: "
                      f"{other['metrics'][key]['value']} -> {entry['value']}")
    if checked:
        print(f"per-layer counts and modeled metrics: {checked} compared, "
              f"{differing} differ")
    return 1 if failing or differing else 0


if __name__ == "__main__":
    sys.exit(main())
