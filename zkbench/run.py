"""Run the repro benchmark and print every metric by name with its unit.

    python3 zkbench/run.py [--workload NAME] [--seed S] [--seconds T]
                           [--trace 0|1] [--json PATH]

Without ``--workload`` every workload in ``BENCHMARK.json`` runs, one
after another.  Each workload runs in fresh single-threaded worker
processes (see ``worker.py``): one computes the reference outputs, then
``--trace 0`` splits the timed window between nine ``measure``
processes in turn, each of which times one cold set-up before its share
of timed ops, so the set-ups are spread over the whole window and
``setup_s`` is the fastest of them, as ``op_min_s`` is the fastest op;
``--trace 1`` measures the per-layer metrics in one process instead.
Every op is checked bit-exactly against the reference; any wrong output
or failed gate exits non-zero without printing a result.

Output: ``workload metric value unit`` lines, then one JSON object on
the last line: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh measuring processes per end-to-end run, hence cold set-ups.
MEASURE_RUNS = 9
#: One workload must finish within three minutes; a worker still
#: running when this budget is spent has hung and is killed.
BUDGET_S = 170


class BenchError(Exception):
    """A worker failed, timed out, or returned an incomplete result."""


def worker(deadline: float, role: str, workload: str, seed: int,
           seconds: float = 0.0, reference: list[str] | None = None) -> dict:
    """Run one worker process to completion and parse its result."""
    remaining = deadline - time.monotonic()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    command = [sys.executable, str(HERE / "worker.py"), role,
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    stdin = "" if reference is None else json.dumps({"reference": reference})
    try:
        proc = subprocess.run(command, input=stdin, capture_output=True,
                              text=True, env=env, cwd=ROOT,
                              timeout=max(remaining, 1.0))
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{workload} {role}: timed out") from error
    if proc.returncode != 0:
        raise BenchError(f"{workload} {role}: exit {proc.returncode}\n"
                         f"{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} {role}: no result")
    return json.loads(lines[-1])


def run_workload(config: dict, name: str, seed: int, seconds: float,
                 traced: bool) -> dict:
    deadline = time.monotonic() + BUDGET_S
    reference = worker(deadline, "reference", name, seed)["reference"]
    if traced:
        out = worker(deadline, "trace", name, seed, seconds, reference)
        values = out["metrics"]
        wanted = config["per_layer"]
    else:
        # Each part sets up cold, then times its share of the window.
        # The host has slow spells of seconds to minutes that can cover
        # most of a window; the fastest set-up, like the fastest op,
        # needs only one quiet moment in it, where a median needs half.
        parts = [worker(deadline, "measure", name, seed,
                        seconds / MEASURE_RUNS, reference)
                 for _ in range(MEASURE_RUNS)]
        samples = {"setup_s": [part["setup_s"] for part in parts],
                   "op_s": [t for part in parts for t in part["op_s"]],
                   "peak_rss_mb": [part["peak_rss_mb"] for part in parts]}
        values = {"setup_s": min(samples["setup_s"]),
                  "op_min_s": min(samples["op_s"]),
                  "peak_rss_mb": statistics.median(samples["peak_rss_mb"])}
        out = {"attempted": sum(part["attempted"] for part in parts),
               "failed": sum(part["failed"] for part in parts),
               "samples": samples}
        wanted = config["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"{name}: no value for {', '.join(missing)}")
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(traced), "correct": True,
        "attempted": out["attempted"], "failed": out["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in wanted},
        "missing_spans": out.get("missing_spans", []),
        "samples": out["samples"],
    }


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path,
                        help="also write the full results (samples, "
                             "missing spans) to this file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    runs = []
    try:
        for name in [args.workload] if args.workload else names:
            run = run_workload(config, name, args.seed, args.seconds,
                               bool(args.trace))
            for metric, entry in run["metrics"].items():
                print(f"{name} {metric} {entry['value']!r} {entry['unit']}",
                      flush=True)
            for span in run["missing_spans"]:
                print(f"{name} missing_span {span}", flush=True)
            runs.append(run)
    except BenchError as error:
        print(f"run.py: FAILED: {error}", file=sys.stderr)
        return 1
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps({
            "host": {"platform": platform.platform(),
                     "python": platform.python_version(),
                     "cpus": os.cpu_count()},
            "runs": runs}, indent=1, sort_keys=True) + "\n")
    prefix = (lambda run, metric: metric) if args.workload else \
        (lambda run, metric: f"{run['workload']}.{metric}")
    print(json.dumps({
        "correct": True,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {prefix(run, metric): entry for run in runs
                    for metric, entry in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
