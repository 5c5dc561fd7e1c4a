"""A three-level UniNTT program runs through the one executor.

:func:`repro.multigpu.schedule.build_unintt_schedule` writes the
recursion for any fanouts with one loop.  Here the fanouts are
``(2, 2, 4)`` on ``SimCluster(16, node_size=4)``: the innermost level
exchanges inside each node of 4 GPUs, the two outer levels across
nodes.  The program, verified and memoized the way the engines take
theirs, runs through :func:`repro.analysis.interp.execute_schedule`
with no code specific to three levels; forward and inverse must be
bit-exact against the radix-2 reference on both list backends, and the
trace must charge exactly the program's ops, bytes per level and
multiplications.
"""

import random

import pytest

from repro.analysis.interp import execute_schedule, verified_program
from repro.analysis.passes import run_passes
from repro.analysis.tracecheck import check_trace
from repro.field import BN254_FR, GOLDILOCKS, use_backend
from repro.field.backend import numpy_available
from repro.multigpu import (
    BlockLayout, CyclicLayout, DistributedVector, SpectralLayout,
)
from repro.multigpu.schedule import (
    ALL_ON, ExchangeOp, LocalOp, ablation_grid, build_unintt_schedule,
)
from repro.ntt import radix2
from repro.sim import SimCluster

BACKENDS = ("python", "numpy") if numpy_available() else ("python",)
FANOUTS = (2, 2, 4)
GPUS, NODE = 16, 4


def program(n, eb, options=ALL_ON, inverse=False):
    return verified_program(build_unintt_schedule, n, GPUS, eb, options,
                            4096, inverse, False, FANOUTS, True)


def output_layout(n, options):
    if options.keep_permuted_output:
        return SpectralLayout(n=n, gpu_count=GPUS, fanouts=FANOUTS)
    return BlockLayout(n=n, gpu_count=GPUS)


def run(field, values, schedule, source, target):
    cluster = SimCluster(field, GPUS, node_size=NODE)
    DistributedVector.from_values(cluster, values, source)
    execute_schedule(schedule, cluster)
    return DistributedVector(cluster=cluster, layout=target).to_values(), \
        cluster.trace


def assert_charges(trace, schedule):
    assert trace.bytes_by_level() == schedule.bytes_by_level()
    assert trace.total_field_muls() == schedule.total_field_muls()
    charged = [(e.level, e.detail) for e in trace.events
               if e.kind in ("local-compute", "all-to-all")
               and (e.total_bytes or e.field_muls)]
    assert charged == [(op.level, op.name) for op in schedule.ops
                       if not isinstance(op, LocalOp)
                       or op.mem_bytes_per_gpu or op.field_muls_per_gpu]
    findings = check_trace(trace, schedule=schedule)
    assert findings == [], [str(f) for f in findings]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("field", [GOLDILOCKS, BN254_FR],
                         ids=lambda f: f.name)
@pytest.mark.parametrize("n", [1 << 6, 1 << 9])
def test_three_levels_are_bit_exact_both_ways(backend, field, n):
    values = field.random_vector(n, random.Random(n))
    spectrum = radix2.ntt(field, values)
    cyclic = CyclicLayout(n=n, gpu_count=GPUS, fanouts=FANOUTS)
    spectral = SpectralLayout(n=n, gpu_count=GPUS, fanouts=FANOUTS)
    eb = SimCluster(field, 1).element_bytes
    with use_backend(backend):
        forward = program(n, eb)
        out, trace = run(field, values, forward, cyclic, spectral)
        assert out == spectrum
        assert_charges(trace, forward)

        inverse = program(n, eb, inverse=True)
        back, trace = run(field, spectrum, inverse, spectral, cyclic)
        assert back == values
        assert_charges(trace, inverse)


@pytest.mark.parametrize("label,options", ablation_grid(),
                         ids=[label for label, _ in ablation_grid()])
def test_every_ablation_runs_on_three_levels(label, options):
    n = 1 << 8
    values = GOLDILOCKS.random_vector(n, random.Random(3))
    cyclic = CyclicLayout(n=n, gpu_count=GPUS, fanouts=FANOUTS)
    forward = program(n, 8, options)
    out, trace = run(GOLDILOCKS, values, forward, cyclic,
                     output_layout(n, options))
    assert out == radix2.ntt(GOLDILOCKS, values)
    if options.keep_permuted_output:
        assert_charges(trace, forward)
    else:
        # The materializing relayout moves bytes inside and across
        # nodes, but the program books the whole op at "multi-gpu":
        # only the totals agree.
        assert sum(trace.bytes_by_level().values()) \
            == sum(forward.bytes_by_level().values())
        assert trace.total_field_muls() == forward.total_field_muls()
    back, _ = run(GOLDILOCKS, out, program(n, 8, options, inverse=True),
                  output_layout(n, options), cyclic)
    assert back == values


def test_each_level_rides_its_fabric():
    """The innermost exchange stays inside a node; every outer one is
    rail-aligned across nodes; each level's ops carry its prefix and
    fanout."""
    schedule = program(1 << 8, 8)
    exchanges = [op for op in schedule.ops if isinstance(op, ExchangeOp)]
    assert [(op.name, op.level) for op in exchanges] == [
        ("unintt-exchange", "multi-gpu"),
        ("unintt-inter-exchange", "multi-node"),
        ("unintt-inter-inter-exchange", "multi-node")]
    assert all(t.src // NODE == t.dst // NODE
               for t in exchanges[0].transfers)
    for op in exchanges[1:]:
        assert op.transfers
        assert all(t.src // NODE != t.dst // NODE
                   and t.src % NODE == t.dst % NODE for t in op.transfers)
    crosses = {op.name: op.fanout for op in schedule.ops
               if op.name.endswith("cross-ntt")}
    assert crosses == {"cross-ntt": 4, "inter-cross-ntt": 2,
                       "inter-inter-cross-ntt": 2}
    assert schedule.name == "unintt[FT+PO+OV+RF]@2x2x4"


def test_rewritten_three_level_program_still_runs():
    n = 1 << 8
    values = GOLDILOCKS.random_vector(n, random.Random(9))
    rewritten, _ = run_passes(program(n, 8))
    out, trace = run(GOLDILOCKS, values, rewritten,
                     CyclicLayout(n=n, gpu_count=GPUS, fanouts=FANOUTS),
                     SpectralLayout(n=n, gpu_count=GPUS, fanouts=FANOUTS))
    assert out == radix2.ntt(GOLDILOCKS, values)
    assert trace.bytes_by_level() == rewritten.bytes_by_level()


def test_sizes_below_every_levels_floor_are_refused():
    # n >= G times the widest fanout: 16 * 4.
    with pytest.raises(ValueError, match="32 < 16\\*4"):
        build_unintt_schedule(32, GPUS, 8, fanouts=FANOUTS)
    with pytest.raises(ValueError, match="do not split"):
        build_unintt_schedule(1 << 8, GPUS, 8, fanouts=(2, 2, 2))
    with pytest.raises(ValueError, match="one level only"):
        build_unintt_schedule(1 << 8, GPUS, 8, coset=True, fanouts=FANOUTS)
