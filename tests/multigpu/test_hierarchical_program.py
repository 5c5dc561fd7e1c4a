"""The two-level UniNTT program: the hierarchical engine runs what the
builder writes.

:func:`repro.multigpu.schedule.build_unintt_schedule` with fanouts
``(N, P)`` emits the recursion for a node-structured cluster: an
intra-node exchange with P-point cross transforms, the inter-node
twiddle read through the level-0
:class:`~repro.multigpu.layout.SpectralLayout`, then the
rail-aligned ``multi-node`` exchange with N-point cross transforms.
These tests pin, on N x P in {2x2, 2x4, 4x2}, both list backends and
two fields, that :class:`HierarchicalUniNTTEngine` executes exactly that
program (one trace event per op, in order, with the op's name, level,
bytes and multiplications), that it is bit-exact against the radix-2
reference and round-trips, that its trace agrees with the program per
level and passes the trace audit against it, and that a compute fault
at every local step of the program lands on live data and is caught
by the resilient wrapper's ABFT check.
"""

import random

import pytest

from repro.analysis.passes import run_passes
from repro.analysis.tracecheck import check_trace
from repro.field import BN254_FR, GOLDILOCKS, use_backend
from repro.field.backend import numpy_available
from repro.multigpu import DistributedVector, HierarchicalUniNTTEngine
from repro.multigpu.resilience import ResilientNTTEngine
from repro.multigpu.schedule import (
    ExchangeOp, LocalOp, build_unintt_schedule,
)
from repro.ntt import radix2
from repro.sim import SimCluster
from repro.sim.faults import FaultInjector, FaultPlan

BACKENDS = ("python", "numpy") if numpy_available() else ("python",)
SHAPES = [(2, 2), (2, 4), (4, 2)]
SIZES = [1 << 8, 1 << 10]


def make_engine(field, nodes, per_node, injector=None):
    cluster = SimCluster(field, nodes * per_node, node_size=per_node,
                         injector=injector)
    return HierarchicalUniNTTEngine(cluster)


def stage(engine, values, layout):
    return DistributedVector.from_values(engine.cluster, values, layout)


def traced_ops(trace):
    """(kind, level, detail, bytes, muls) of every charging event."""
    return [(e.kind, e.level, e.detail, e.total_bytes, e.field_muls)
            for e in trace.events
            if e.kind in ("local-compute", "all-to-all")
            and (e.total_bytes or e.field_muls)]


def expected_ops(program):
    gpus = program.num_gpus
    out = []
    for op in program.ops:
        if isinstance(op, LocalOp):
            out.append(("local-compute", op.level, op.name,
                        op.mem_bytes_per_gpu * gpus,
                        op.field_muls_per_gpu * gpus))
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
@pytest.mark.parametrize("nodes,per_node", SHAPES,
                         ids=[f"{a}x{b}" for a, b in SHAPES])
@pytest.mark.parametrize("n", SIZES)
def test_engine_runs_its_two_level_program(backend, field, nodes,
                                           per_node, n):
    values = field.random_vector(n, random.Random(nodes * 8 + per_node))
    with use_backend(backend):
        engine = make_engine(field, nodes, per_node)
        out = engine.forward(stage(engine, values, engine.input_layout(n)))
        assert out.to_values() == radix2.ntt(field, values)
        assert_runs(engine.cluster.trace, engine.program(n))

        engine.cluster.reset_counters()
        back = engine.inverse(out)
        assert back.to_values() == values
        assert_runs(engine.cluster.trace, engine.program(n, inverse=True))


@pytest.mark.parametrize("nodes,per_node", SHAPES,
                         ids=[f"{a}x{b}" for a, b in SHAPES])
@pytest.mark.parametrize("inverse", [False, True], ids=["fwd", "inv"])
def test_two_level_program_shape(nodes, per_node, inverse):
    """Two exchange levels, each chained with its cross transforms; the
    flat levels' ops keep their one-level names."""
    g = nodes * per_node
    program = build_unintt_schedule(1 << 8, g, 8, inverse=inverse,
                                    fanouts=(nodes, per_node),
                                    pipelined=True)
    exchanges = [op for op in program.ops if isinstance(op, ExchangeOp)]
    assert [op.level for op in exchanges] == (
        ["multi-node", "multi-gpu"] if inverse
        else ["multi-gpu", "multi-node"])
    intra = next(op for op in exchanges if op.level == "multi-gpu")
    inter = next(op for op in exchanges if op.level == "multi-node")
    assert all(t.src // per_node == t.dst // per_node
               for t in intra.transfers)
    assert all(t.src // per_node != t.dst // per_node
               and t.src % per_node == t.dst % per_node
               for t in inter.transfers)
    crosses = {op.name: op.fanout for op in program.ops
               if op.name.endswith("cross-ntt")}
    prefix = "inv-" if inverse else ""
    assert crosses == {f"{prefix}cross-ntt": per_node,
                       f"{prefix}inter-cross-ntt": nodes}
    chained = [op.name for op in program.ops if op.pipelined]
    assert chained == (
        ["inv-inter-cross-ntt", "inv-cross-ntt"] if inverse
        else ["unintt-exchange", "unintt-inter-exchange"])


@pytest.mark.parametrize("nodes,per_node", SHAPES,
                         ids=[f"{a}x{b}" for a, b in SHAPES])
def test_rewritten_two_level_program_still_runs(nodes, per_node):
    """The pass pipeline keeps levels apart: a rewritten program
    executes bit-exactly and charges the same bytes."""
    from repro.analysis.interp import execute_schedule

    n = 1 << 8
    engine = make_engine(GOLDILOCKS, nodes, per_node)
    values = GOLDILOCKS.random_vector(n, random.Random(7))
    stage(engine, values, engine.input_layout(n))
    rewritten, _ = run_passes(engine.program(n))
    execute_schedule(rewritten, engine.cluster)
    out = DistributedVector(cluster=engine.cluster,
                            layout=engine.output_layout(n))
    assert out.to_values() == radix2.ntt(GOLDILOCKS, values)
    assert engine.cluster.trace.bytes_by_level() \
        == rewritten.bytes_by_level()


def local_steps(nodes, per_node, n):
    program = make_engine(GOLDILOCKS, nodes, per_node).program(n)
    return range(sum(isinstance(op, LocalOp) for op in program.ops))


FAULT_CASES = [(nodes, per_node, step)
               for nodes, per_node in SHAPES
               for step in local_steps(nodes, per_node, 1 << 8)]


@pytest.mark.parametrize("nodes,per_node,step", FAULT_CASES,
                         ids=[f"{a}x{b}-step{s}" for a, b, s in FAULT_CASES])
def test_compute_fault_at_each_local_step_is_live_and_caught(
        nodes, per_node, step):
    field, n = GOLDILOCKS, 1 << 8
    values = field.random_vector(n, random.Random(step))
    expected = radix2.ntt(field, values)
    spec = [f"compute-bitflip@{step}:gpu=1,delta=9"]

    def injector():
        return FaultInjector(FaultPlan.from_specs(spec, seed=5),
                             field.modulus)

    bare = make_engine(field, nodes, per_node, injector=injector())
    out = bare.forward(stage(bare, values, bare.input_layout(n)))
    assert out.to_values() != expected
    assert bare.cluster.injector.local_index == len(local_steps(
        nodes, per_node, n))

    cluster = SimCluster(field, nodes * per_node, node_size=per_node,
                         injector=injector())
    engine = ResilientNTTEngine(cluster, HierarchicalUniNTTEngine,
                                abft=True, seed=5)
    out = engine.forward(DistributedVector.from_values(
        cluster, values, engine.input_layout(n)))
    assert out.to_values() == expected
    assert engine.abft_checker.detections == 1
    assert engine.abft_checker.reexecutions == 1
    findings = check_trace(cluster.trace)
    assert findings == [], [str(f) for f in findings]
