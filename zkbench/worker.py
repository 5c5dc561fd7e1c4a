"""One workload in one fresh, single-threaded process.

``run.py`` starts this script once per role, so every cold set-up and
every peak-RSS reading belongs to a process of its own:

* ``reference`` -- print the reference output digests;
* ``measure``   -- time object construction plus the first, cold op
  (which is also the warm-up), then run timed ops closed-loop until
  ``--seconds`` have passed since the start; end-to-end metrics;
* ``trace``     -- set up, warm up, then alternate untraced and traced
  ops for ``--seconds``; per-layer metrics.

Every op of the last three roles is checked against the reference
digests, which arrive as JSON on standard input.  A wrong output or a
failed gate exits with status 1 before any metric is printed.  The
result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import SPANS, Tracer  # noqa: E402  (needs HERE on sys.path)

#: The per-layer metric names; one that a workload does not make reads 0.
PER_LAYER = [metric["name"] for metric in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["per_layer"]]


class GateFailure(Exception):
    """An op produced a wrong output or failed a correctness gate."""


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    import repro

    src = (ROOT / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        raise GateFailure(f"repro imported from {repro.__file__}, "
                          f"not from {src}")


class Session:
    """A workload's inputs, state and gates inside one process."""

    def __init__(self, workload, seed: int, reference: list[str] | None):
        from repro.field import set_backend

        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.counts: dict = {}
        self.inputs = workload.make_inputs(seed)
        set_backend(workload.backend)

    def setup(self) -> float:
        """Construct the state and run the cold first op; its seconds."""
        start = time.perf_counter()
        state = self.workload.setup(self.inputs)
        result = self.workload.op(state)
        elapsed = time.perf_counter() - start
        self.state = state
        self.check(result, timed=False)
        return elapsed

    def check(self, result, timed: bool = True) -> None:
        """Gate one op's output; ``timed`` ops count as attempted."""
        digests, failed, counts, problems = self.workload.check(
            self.state, result)
        if problems:
            raise GateFailure("; ".join(problems))
        if self.reference is not None:
            wrong = [i for i, d in digests.items()
                     if d != self.reference[i]]
            if wrong:
                raise GateFailure(
                    f"{self.workload.name}: {len(wrong)} output(s) differ "
                    f"from the reference (first unit {wrong[0]})")
        self.counts = counts
        if timed:
            units = len(self.reference) if self.reference else 1
            self.attempted += units
            self.failed += failed


def measure(session: Session, seconds: float) -> dict:
    """Set up cold, then time ops until ``seconds`` after the start."""
    deadline = time.perf_counter() + seconds
    setup_s = session.setup()
    durations: list[float] = []
    while time.perf_counter() < deadline or not durations:
        gc.collect()
        start = time.perf_counter()
        result = session.workload.op(session.state)
        durations.append(time.perf_counter() - start)
        session.check(result)
        # Freed before the next op runs, so the peak RSS is that of one
        # op, not one op plus the last one's output (a whole fleet on
        # serve-fleet), and does not depend on how many ops fit.
        del result
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"setup_s": setup_s, "op_s": durations,
            "peak_rss_mb": rss_kb / 1024}


def trace(session: Session, seconds: float, spans=SPANS) -> dict:
    session.setup()
    session.check(session.workload.op(session.state), timed=False)
    tracer = Tracer(spans)
    plain: list[float] = []
    traced: list[float] = []
    unattributed = 0.0

    def run(with_spans: bool):
        nonlocal unattributed
        gc.collect()
        if with_spans:
            result, total, rest = tracer.run(
                lambda: session.workload.op(session.state))
            traced.append(total)
            unattributed += rest
        else:
            start = time.perf_counter()
            result = session.workload.op(session.state)
            plain.append(time.perf_counter() - start)
        session.check(result)
        return result

    # Untraced and traced ops alternate in pairs, each pair in the
    # opposite order to the last, so drift in machine speed cancels.
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < 3:
        traced_first = len(traced) % 2 == 1
        run(traced_first)
        result = run(not traced_first)
    ops = len(traced)
    metrics = {f"{name}_s": value / ops
               for name, value in tracer.self_s.items()}
    metrics.update({f"{name}_calls": value / ops
                    for name, value in tracer.calls.items()})
    metrics.update(session.counts)
    metrics.update(session.workload.modeled(session.state, result))
    metrics["unattributed_s"] = unattributed / ops
    metrics["traced_op_s"] = sum(traced) / ops
    metrics["trace_overhead"] = statistics.median(
        t / p for p, t in zip(plain, traced)) - 1
    return {
        "metrics": {name: metrics.get(name, 0) for name in PER_LAYER},
        "missing_spans": tracer.missing,
        "samples": {"op_s": plain, "traced_op_s": traced},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("reference", "measure", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    try:
        import_repro()
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload]
        reference = None
        if args.role != "reference":
            reference = json.load(sys.stdin)["reference"]
        session = Session(workload, args.seed, reference)
        if args.role == "reference":
            out = {"reference": workload.reference(session.inputs)}
        elif args.role == "measure":
            out = measure(session, args.seconds)
        else:
            out = trace(session, args.seconds)
    except GateFailure as error:
        print(f"worker: FAILED: {error}", file=sys.stderr)
        return 1
    out.update(attempted=session.attempted, failed=session.failed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
