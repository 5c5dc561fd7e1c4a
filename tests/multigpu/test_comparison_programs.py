"""The comparison engines run their programs.

:func:`repro.multigpu.schedule.build_pairwise_schedule` writes the
binary-exchange run (local transforms with the twiddle fused, then
``log2 G`` swap-and-combine butterfly stages over the GPU dimension)
and :func:`repro.multigpu.schedule.build_baseline_schedule` the
distributed four-step (three transposes around the column transforms,
a standalone twiddle sweep and the row transforms).  These tests pin,
on G in {2, 4, 8}, n in {2^8, 2^10}, both list backends and two
fields, that :class:`PairwiseExchangeEngine` and
:class:`BaselineFourStepEngine` execute exactly those programs (one
trace event per op, in order, with the op's name, level, bytes and
multiplications), that they are bit-exact against the radix-2
reference and round-trip, that the trace agrees with the program per
level and passes the trace audit against it, that a compute fault at
every local step lands on live data and is caught by the resilient
wrapper's ABFT check, that a transient fault at every collective is
retried, and that pricing sweeps never evict the programs that run.
"""

import random

import pytest

from repro.analysis.tracecheck import check_trace
from repro.field import BN254_FR, GOLDILOCKS, use_backend
from repro.field.backend import numpy_available
from repro.hw.machines import DGX_A100
from repro.multigpu import (
    BaselineFourStepEngine, DistributedVector, PairwiseExchangeEngine,
)
from repro.multigpu.resilience import ResilientNTTEngine
from repro.multigpu.schedule import (
    ExchangeOp, LocalOp, PairwiseOp, build_baseline_schedule,
    build_pairwise_schedule,
)
from repro.ntt import radix2
from repro.sim import SimCluster
from repro.sim.faults import FaultInjector, FaultPlan

BACKENDS = ("python", "numpy") if numpy_available() else ("python",)
ENGINES = {"pairwise": PairwiseExchangeEngine,
           "baseline": BaselineFourStepEngine}
GPUS = [2, 4, 8]
SIZES = [1 << 8, 1 << 10]


def stage(engine, values, layout):
    return DistributedVector.from_values(engine.cluster, values, layout)


def traced_ops(trace):
    """(kind, level, detail, bytes, muls) of every charging event."""
    return [(e.kind, e.level, e.detail, e.total_bytes, e.field_muls)
            for e in trace.events
            if e.kind in ("local-compute", "all-to-all", "pairwise")
            and (e.total_bytes or e.field_muls)]


def expected_ops(program):
    gpus = program.num_gpus
    out = []
    for op in program.ops:
        if isinstance(op, LocalOp):
            out.append(("local-compute", op.level, op.name,
                        op.mem_bytes_per_gpu * gpus,
                        op.field_muls_per_gpu * gpus))
        elif isinstance(op, PairwiseOp):
            out.append(("pairwise", op.level, op.name, op.total_bytes(),
                        0))
        else:
            assert isinstance(op, ExchangeOp)
            out.append(("all-to-all", op.level, op.name, op.total_bytes(),
                        0))
    return out


def assert_runs(trace, program):
    assert traced_ops(trace) == expected_ops(program)
    assert trace.bytes_by_level() == program.bytes_by_level()
    assert trace.total_field_muls() == program.total_field_muls()
    findings = check_trace(trace, schedule=program)
    assert findings == [], [str(f) for f in findings]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("field", [GOLDILOCKS, BN254_FR],
                         ids=lambda f: f.name)
@pytest.mark.parametrize("gpus", GPUS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("engine_name", list(ENGINES))
def test_engine_runs_its_program(engine_name, backend, field, gpus, n):
    values = field.random_vector(n, random.Random(gpus * n))
    with use_backend(backend):
        engine = ENGINES[engine_name](SimCluster(field, gpus))
        out = engine.forward(stage(engine, values, engine.input_layout(n)))
        assert out.to_values() == radix2.ntt(field, values)
        assert_runs(engine.cluster.trace, engine.program(n))

        engine.cluster.reset_counters()
        back = engine.inverse(out)
        assert back.to_values() == values
        assert_runs(engine.cluster.trace, engine.program(n, inverse=True))


@pytest.mark.parametrize("gpus", GPUS)
@pytest.mark.parametrize("inverse", [False, True], ids=["fwd", "inv"])
def test_pairwise_program_shape(gpus, inverse):
    """log2 G swap-and-combine stages around the local transforms; each
    combine spans twice its stage's half, and the stages run G/2 down
    to 1 forward (DIF), 1 up to G/2 inverse (DIT)."""
    program = build_pairwise_schedule(1 << 8, gpus, 8, inverse=inverse)
    swaps = [op for op in program.ops if isinstance(op, PairwiseOp)]
    halves = [op.partner_of[0] for op in swaps]
    stages = [gpus >> i for i in range(1, gpus.bit_length())]
    assert halves == (stages[::-1] if inverse else stages)
    combines = [op for op in program.ops
                if isinstance(op, LocalOp) and "combine" in op.name]
    assert [op.fanout for op in combines] == [2 * h for h in halves]
    local = program.ops[-1 if inverse else 0]
    assert local.name == ("inv-local-ntt" if inverse else "local-ntt")
    assert local.fanout == gpus


@pytest.mark.parametrize("inverse", [False, True], ids=["fwd", "inv"])
def test_baseline_program_shape(inverse):
    """Three transposes around two cross transforms and a twiddle
    sweep read through the block layout."""
    program = build_baseline_schedule(1 << 9, 4, 8, inverse=inverse)
    pre = "inv-" if inverse else ""
    assert [op.name for op in program.ops] == [
        "baseline-T1", f"{pre}col-ntt", f"{pre}twiddle-pass",
        "baseline-T2", f"{pre}row-ntt", "baseline-T3"]
    fanouts = [op.fanout for op in program.ops if isinstance(op, LocalOp)]
    assert fanouts == [16, 32, 32]  # rows, cols, cols of 16 x 32
    assert [type(op.target).__name__ for op in program.ops
            if isinstance(op, ExchangeOp)] == [
        "ColumnBlockLayout", "BlockLayout", "TransposedBlockLayout"]


@pytest.mark.parametrize("inverse", [False, True], ids=["fwd", "inv"])
def test_baseline_prices_column_and_row_transforms_apart(inverse):
    """``per_phase`` keeps the column and the row transforms as two
    rows (they used to share one ``cross-ntt`` name and so one row)."""
    engine = BaselineFourStepEngine(SimCluster(GOLDILOCKS, 8))
    estimate = engine.estimate(DGX_A100, 1 << 24, inverse=inverse)
    pre = "inv-" if inverse else ""
    assert list(estimate.per_phase) == [
        "baseline-T1", f"{pre}col-ntt", f"{pre}twiddle-pass",
        "baseline-T2", f"{pre}row-ntt", "baseline-T3"]
    assert estimate.per_phase[f"{pre}col-ntt"] > 0
    assert estimate.per_phase[f"{pre}row-ntt"] > 0


def local_steps(engine_name, gpus, n):
    program = ENGINES[engine_name](SimCluster(GOLDILOCKS, gpus)).program(n)
    return range(sum(isinstance(op, LocalOp) for op in program.ops))


def collectives(engine_name, gpus, n):
    program = ENGINES[engine_name](SimCluster(GOLDILOCKS, gpus)).program(n)
    return range(len(program.collective_ops()))


def injector(spec, field):
    return FaultInjector(FaultPlan.from_specs([spec], seed=5),
                         field.modulus)


FAULT_CASES = [(name, gpus, step) for name in ENGINES for gpus in GPUS
               for step in local_steps(name, gpus, 1 << 8)]


@pytest.mark.parametrize("engine_name,gpus,step", FAULT_CASES,
                         ids=[f"{e}-G{g}-step{s}" for e, g, s in FAULT_CASES])
def test_compute_fault_at_each_local_step_is_live_and_caught(
        engine_name, gpus, step):
    field, n = GOLDILOCKS, 1 << 8
    engine_cls = ENGINES[engine_name]
    values = field.random_vector(n, random.Random(step))
    expected = radix2.ntt(field, values)
    spec = f"compute-bitflip@{step}:gpu=1,delta=9"

    bare = engine_cls(SimCluster(field, gpus,
                                 injector=injector(spec, field)))
    out = bare.forward(stage(bare, values, bare.input_layout(n)))
    assert out.to_values() != expected
    assert bare.cluster.injector.local_index == len(
        local_steps(engine_name, gpus, n))

    cluster = SimCluster(field, gpus, injector=injector(spec, field))
    engine = ResilientNTTEngine(cluster, engine_cls, abft=True, seed=5)
    out = engine.forward(DistributedVector.from_values(
        cluster, values, engine.input_layout(n)))
    assert out.to_values() == expected
    assert engine.abft_checker.detections == 1
    assert engine.abft_checker.reexecutions == 1
    findings = check_trace(cluster.trace)
    assert findings == [], [str(f) for f in findings]


COMM_CASES = [(name, gpus, index) for name in ENGINES for gpus in GPUS
              for index in collectives(name, gpus, 1 << 8)]


@pytest.mark.parametrize("engine_name,gpus,index", COMM_CASES,
                         ids=[f"{e}-G{g}-c{i}" for e, g, i in COMM_CASES])
def test_transient_fault_at_each_collective_is_retried(engine_name, gpus,
                                                       index):
    field, n = BN254_FR, 1 << 8
    values = field.random_vector(n, random.Random(index))
    cluster = SimCluster(field, gpus,
                         injector=injector(f"transient-comm@{index}", field))
    engine = ResilientNTTEngine(cluster, ENGINES[engine_name], seed=5)
    out = engine.forward(DistributedVector.from_values(
        cluster, values, engine.input_layout(n)))
    assert out.to_values() == radix2.ntt(field, values)
    assert engine.report.retries == 1
    assert engine.inverse(out).to_values() == values
    findings = check_trace(cluster.trace)
    assert findings == [], [str(f) for f in findings]


def test_pricing_sweeps_leave_the_executed_programs_alone():
    """Profiles are memoized apart from the programs transforms run, so
    a pricing sweep of many shapes never evicts an executing program."""
    from repro.analysis.interp import verified_program

    engines = [cls(SimCluster(GOLDILOCKS, 4)) for cls in ENGINES.values()]
    programs = [engine.program(1 << 8) for engine in engines]
    before = verified_program.cache_info()
    for engine in engines:
        for log_n in range(8, 40):
            engine.forward_profile(1 << log_n)
            engine.inverse_profile(1 << log_n)
    assert verified_program.cache_info() == before
    assert [engine.program(1 << 8) for engine in engines] == programs
    assert all(engine.program(1 << 8) is program
               for engine, program in zip(engines, programs))
