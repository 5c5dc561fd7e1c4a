"""Self-tests of the benchmark harness: ``pytest zkbench``.

The end-to-end contract runs the real command on its fastest workload
with a tiny measuring window; the gate and missing-span tests run
in-process on a 64-point toy workload, and the self-time test on
sleeps of known length.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


class Toy:
    """Forward NTT of a 64-point Goldilocks vector, then a pointwise square.

    ``corrupt_after`` makes every op past that many return a wrong value.
    """

    name = "toy"
    backend = "numpy"

    def __init__(self, corrupt_after: int | None = None):
        self.corrupt_after = corrupt_after
        self.ops = 0

    def make_inputs(self, seed):
        import random

        from repro.field.presets import GOLDILOCKS

        return GOLDILOCKS.random_vector(64, random.Random(seed))

    def reference(self, inputs):
        from repro.field import use_backend
        from repro.field.presets import GOLDILOCKS
        from repro.ntt import ntt

        p = GOLDILOCKS.modulus
        with use_backend("python"):
            return [workloads.digest(tuple(
                x * x % p for x in ntt(GOLDILOCKS, inputs)))]

    def setup(self, inputs):
        return inputs

    def op(self, state):
        from repro.field import vector
        from repro.field.presets import GOLDILOCKS
        from repro.ntt import radix2

        self.ops += 1
        out = radix2.ntt(GOLDILOCKS, state)
        out = vector.vec_mul(GOLDILOCKS, out, out)
        if self.corrupt_after is not None and self.ops > self.corrupt_after:
            out[0] ^= 1
        return tuple(out)

    def check(self, state, result):
        return {0: workloads.digest(result)}, 0, {}, []

    def modeled(self, state, result):
        return {}


def session_for(workload, seed=3):
    reference = workload.reference(workload.make_inputs(seed))
    return worker.Session(workload, seed, reference)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(trace):
    proc = run_cli("--workload", "cluster-list", "--seed", "2",
                   "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = CONFIG["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    if trace == "0":
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values())


def _inner():
    time.sleep(0.02)


def _outer():
    time.sleep(0.03)
    _inner()


def test_a_span_self_time_excludes_the_spans_nested_in_it():
    tracer = spans.Tracer((spans.Span("outer", (f"{__name__}:_outer",)),
                           spans.Span("inner", (f"{__name__}:_inner",))))

    def op():
        time.sleep(0.01)
        _outer()

    _, total, unattributed = tracer.run(op)
    # A sleep never ends early and seldom overruns by 5 ms; counting the
    # inner span in the outer one's self time would add 20 ms.
    for value, expected in ((tracer.self_s["outer"], 0.03),
                            (tracer.self_s["inner"], 0.02),
                            (unattributed, 0.01)):
        assert expected <= value < expected + 0.015
    assert total == pytest.approx(
        sum(tracer.self_s.values()) + unattributed)
    assert tracer.calls == {"outer": 1, "inner": 1}


def test_spans_restore_every_original():
    from repro.field import vector
    from repro.ntt import radix2

    before = (radix2.ntt, vector.vec_mul)
    tracer = spans.Tracer()
    tracer.enable()
    assert radix2.ntt is not before[0]
    tracer.disable()
    assert (radix2.ntt, vector.vec_mul) == before


def test_missing_span_target_is_listed_and_does_not_crash():
    gone = spans.Span("gone.layer", ("repro.ntt.radix2:no_such_function",
                                     "repro.no_such_module:f"))
    out = worker.trace(session_for(Toy()), seconds=0.2,
                       spans=spans.SPANS + (gone,))
    assert out["missing_spans"] == [
        "gone.layer:repro.ntt.radix2:no_such_function",
        "gone.layer:repro.no_such_module:f"]
    assert out["metrics"]["ntt.local_calls"] == 1
    assert out["metrics"]["field.pointwise_calls"] == 1


def test_wrong_op_result_fails_the_run():
    with pytest.raises(worker.GateFailure, match="differ from the reference"):
        worker.measure(session_for(Toy(corrupt_after=2)), seconds=0.2)


def test_wrong_op_result_exits_nonzero_without_a_result(monkeypatch, capsys):
    toy = Toy(corrupt_after=1)
    reference = toy.reference(toy.make_inputs(3))
    monkeypatch.setitem(workloads.WORKLOADS, "toy", toy)
    monkeypatch.setattr(sys, "stdin",
                        io.StringIO(json.dumps({"reference": reference})))
    code = worker.main(["measure", "--workload", "toy", "--seed", "3",
                        "--seconds", "0.1"])
    assert code == 1
    assert capsys.readouterr().out == ""
