"""The UniNTT program: the engine runs the schedule the builder writes.

:func:`repro.multigpu.schedule.build_unintt_schedule` is the only
description of a UniNTT run.  These tests pin that the engine's trace
*is* that program — one local-compute or all-to-all event per op, in
order, with the op's name, bytes and multiplications — across every
ablation arm, both directions, with and without a coset, on two fields
and both list backends; that the engine's profile is the program's own
cost-model steps; that the inverse and coset
programs pass the verifier and the rewrite gate; and that the
interpreter, which shares the engine's executor, corrupts the same
data under a compute fault.
"""

import random

import pytest

from repro.analysis.interp import interpret_schedule
from repro.analysis.passes import run_passes
from repro.analysis.plancheck import verify_schedule
from repro.errors import SchedulePassError
from repro.field import BN254_FR, GOLDILOCKS, use_backend
from repro.field.backend import numpy_available
from repro.hw.plancost import schedule_steps
from repro.multigpu import (
    DistributedVector, UniNTTEngine, pointwise_mem_bytes,
)
from repro.multigpu.schedule import (
    ExchangeOp, LocalOp, ablation_grid, build_unintt_schedule,
)
from repro.ntt import coset_intt, coset_ntt, intt, ntt
from repro.sim import SimCluster
from repro.sim.faults import FaultInjector, FaultPlan

BACKENDS = ("python", "numpy") if numpy_available() else ("python",)
N = 64
ARMS = ablation_grid()


def run_engine(field, options, gpus, inverse, shift, values, injector=None):
    cluster = SimCluster(field, gpus, injector=injector)
    engine = UniNTTEngine(cluster, options=options)
    layout = engine.output_layout(N) if inverse else engine.input_layout(N)
    vec = DistributedVector.from_values(cluster, values, layout)
    run = engine.inverse if inverse else engine.forward
    return run(vec, coset_shift=shift).to_values(), cluster


def expected_event(op, gpus):
    """The trace event the executor records for one schedule op."""
    if isinstance(op, LocalOp):
        return ("local-compute", op.name, op.mem_bytes_per_gpu * gpus,
                op.field_muls_per_gpu * gpus)
    assert isinstance(op, ExchangeOp)
    return ("all-to-all", op.name, op.total_bytes(), 0)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("field", [GOLDILOCKS, BN254_FR],
                         ids=lambda f: f.name)
@pytest.mark.parametrize("label,options", ARMS, ids=[a for a, _ in ARMS])
@pytest.mark.parametrize("gpus", [2, 4, 8])
@pytest.mark.parametrize("inverse", [False, True], ids=["fwd", "inv"])
@pytest.mark.parametrize("coset", [False, True], ids=["plain", "coset"])
def test_engine_trace_is_its_program(backend, field, label, options, gpus,
                                     inverse, coset):
    values = field.random_vector(N, random.Random(gpus * 4 + 2 * inverse
                                                  + coset))
    shift = field.multiplicative_generator if coset else None
    with use_backend(backend):
        out, cluster = run_engine(field, options, gpus, inverse, shift,
                                  values)

    if inverse:
        expected = (coset_intt(field, values, shift) if coset
                    else intt(field, values))
    else:
        expected = (coset_ntt(field, values, shift) if coset
                    else ntt(field, values))
    assert out == expected

    schedule = build_unintt_schedule(N, gpus, cluster.element_bytes,
                                     options, inverse=inverse, coset=coset)
    traced = [(e.kind, e.detail, e.total_bytes, e.field_muls)
              for e in cluster.trace.events
              if e.kind in ("local-compute", "all-to-all")]
    assert traced == [expected_event(op, gpus) for op in schedule.ops]
    assert cluster.trace.bytes_by_level() == schedule.bytes_by_level()
    assert cluster.trace.total_field_muls() == schedule.total_field_muls()


@pytest.mark.parametrize("label,options", ARMS, ids=[a for a, _ in ARMS])
@pytest.mark.parametrize("inverse", [False, True], ids=["fwd", "inv"])
@pytest.mark.parametrize("coset", [False, True], ids=["plain", "coset"])
def test_programs_pass_the_verifier_and_the_passes(label, options,
                                                   inverse, coset):
    schedule = build_unintt_schedule(1 << 10, 8, 32, options,
                                     inverse=inverse, coset=coset)
    assert verify_schedule(schedule) == []
    rewritten, _ = run_passes(schedule)
    assert rewritten.bytes_by_level() == schedule.bytes_by_level()
    assert rewritten.total_field_muls() == schedule.total_field_muls()


@pytest.mark.parametrize("label,options", ARMS, ids=[a for a, _ in ARMS])
@pytest.mark.parametrize("inverse", [False, True], ids=["fwd", "inv"])
@pytest.mark.parametrize("coset", [False, True], ids=["plain", "coset"])
def test_program_charges_match_the_closed_form_profile(label, options,
                                                       inverse, coset):
    """The profile is the program's own cost-model steps; per GPU, the
    program charges what the profile prices (plus the coset scaling,
    which the plain program the profile prices leaves out)."""
    gpus, eb = 4, 8
    engine = UniNTTEngine(SimCluster(GOLDILOCKS, gpus), options=options)
    program = engine.program(N, inverse=inverse, coset=coset)
    profile = engine.inverse_profile(N) if inverse \
        else engine.forward_profile(N)
    assert profile == schedule_steps(engine.program(N, inverse=inverse))
    phases = [p for step in profile for p in getattr(step, "phases",
                                                     (step,))]
    m = N // gpus
    local = [op for op in program.ops if isinstance(op, LocalOp)]
    exchanges = [op for op in program.ops if isinstance(op, ExchangeOp)]
    coset_muls = 2 * m if coset else 0
    coset_bytes = 0 if not coset or options.fused_twiddle \
        else pointwise_mem_bytes(m, eb)
    assert sum(op.field_muls_per_gpu for op in local) \
        == sum(p.field_muls for p in phases) + coset_muls
    assert sum(op.mem_bytes_per_gpu for op in local) \
        == sum(p.mem_bytes for p in phases) + coset_bytes
    assert sum(max(op.sent_bytes_per_gpu(gpus)) for op in exchanges) \
        == sum(p.exchange_bytes for p in phases)


def test_coset_op_opens_the_forward_and_closes_the_inverse():
    forward = build_unintt_schedule(N, 4, 8, coset=True)
    inverse = build_unintt_schedule(N, 4, 8, inverse=True, coset=True)
    assert forward.ops[0].name == "coset"
    assert inverse.ops[-1].name == "inv-coset"
    plain = build_unintt_schedule(N, 4, 8)
    assert [op.name for op in forward.ops[1:]] \
        == [op.name for op in plain.ops]


def test_interpreter_refuses_inverse_programs():
    schedule = build_unintt_schedule(N, 4, 8, inverse=True)
    with pytest.raises(SchedulePassError, match="inverse program"):
        interpret_schedule(schedule, SimCluster(GOLDILOCKS, 4),
                           GOLDILOCKS.random_vector(N, random.Random(0)))


@pytest.mark.parametrize("label,options", ARMS, ids=[a for a, _ in ARMS])
@pytest.mark.parametrize("step", [0, 1])
def test_interpreter_and_engine_corrupt_alike(label, options, step):
    """One executor: a compute fault lands on the same live data."""
    field, gpus = GOLDILOCKS, 4
    values = field.random_vector(N, random.Random(step))
    plan = FaultPlan.from_specs([f"compute-bitflip@{step}:gpu=1,delta=9"],
                                seed=5)

    engine_injector = FaultInjector(plan, field.modulus)
    engine_out, _ = run_engine(field, options, gpus, False, None, values,
                               injector=engine_injector)

    interp_injector = FaultInjector(plan, field.modulus)
    cluster = SimCluster(field, gpus, injector=interp_injector)
    schedule = build_unintt_schedule(N, gpus, cluster.element_bytes,
                                     options)
    interp_out = interpret_schedule(schedule, cluster, list(values))

    assert engine_out != ntt(field, values)
    assert interp_out == engine_out
    assert interp_injector.local_index == engine_injector.local_index \
        == sum(isinstance(op, LocalOp) for op in schedule.ops)
