"""The field backend changes how a transform runs on the host, never what
it charges.

A UniNTT forward (plain or on a coset) + inverse round trip (and the
same forward run by the schedule interpreter) on G=8 simulated GPUs
must give, on the reference ``python`` backend and on a lane backend,
bit-identical outputs, the same per-GPU ``GpuCounters``, the same
``bytes_by_level()`` and the same trace event list.  Every other engine
whose local steps run as one cluster-wide host kernel
(:func:`repro.multigpu.base.local_step`) is held to the same bar.
"""

import random

import pytest

from repro.analysis.interp import interpret_schedule
from repro.analysis.synth import synthesize_hierarchical
from repro.field import BN254_FR, GOLDILOCKS, use_backend
from repro.field.backend import numpy_available
from repro.multigpu import (
    BaselineFourStepEngine, DistributedVector, HierarchicalUniNTTEngine,
    PairwiseExchangeEngine, StreamingHostEngine, UniNTTEngine,
    ablation_grid,
)
from repro.multigpu.schedule import build_unintt_schedule
from repro.sim import SimCluster

GPUS = 8

#: (field, n, lane backend): the lane backend that accelerates the field.
CASES = [
    pytest.param(GOLDILOCKS, 1 << 13, "numpy", id="goldilocks-numpy"),
    pytest.param(BN254_FR, 1 << 10, "multilimb", id="bn254-multilimb"),
]

pytestmark = pytest.mark.skipif(not numpy_available(),
                                reason="lane backends need numpy")


def accounting(cluster):
    return ([gpu.counters.snapshot() for gpu in cluster.gpus],
            cluster.trace.bytes_by_level(), list(cluster.trace.events))


def run_on(backend, field, values, run, node_size=None):
    """``run(cluster, values)`` on a fresh cluster under ``backend``."""
    with use_backend(backend):
        cluster = SimCluster(field, GPUS, node_size=node_size)
        out = run(cluster, values)
    return out, accounting(cluster)


def round_trip(engine, values, **kwargs):
    """Forward then inverse; the spectrum shards and the values back."""
    cluster = engine.cluster
    n = len(values)
    engine.forward(DistributedVector.from_values(
        cluster, values, engine.input_layout(n)), **kwargs)
    spectrum = cluster.peek_shards()
    back = engine.inverse(DistributedVector(
        cluster=cluster, layout=engine.output_layout(n)), **kwargs)
    return spectrum, back.to_values()


def engine_round_trip(backend, field, values, coset_shift=None):
    return run_on(backend, field, values, lambda c, v: round_trip(
        UniNTTEngine(c), v, coset_shift=coset_shift))


def interpreted_forward(backend, field, values):
    return run_on(backend, field, values, lambda c, v: interpret_schedule(
        build_unintt_schedule(len(v), GPUS, c.element_bytes), c, list(v)))


@pytest.mark.parametrize("field,n,lane_backend", CASES)
def test_engine_round_trip_accounting_is_backend_free(field, n,
                                                      lane_backend):
    values = field.random_vector(n, random.Random(n))
    ref_out, ref_acct = engine_round_trip("python", field, values)
    out, acct = engine_round_trip(lane_backend, field, values)
    assert ref_out[1] == values
    assert out == ref_out
    assert acct == ref_acct


@pytest.mark.parametrize("field,n,lane_backend", CASES)
def test_coset_round_trip_accounting_is_backend_free(field, n,
                                                     lane_backend):
    """The coset scaling fused into the local twiddle pass (forward and
    inverse) runs on the backend's lanes too, and charges the same."""
    values = field.random_vector(n, random.Random(n + 2))
    ref_out, ref_acct = engine_round_trip("python", field, values,
                                          coset_shift=7)
    out, acct = engine_round_trip(lane_backend, field, values,
                                  coset_shift=7)
    assert ref_out[1] == values
    assert out == ref_out
    assert acct == ref_acct


@pytest.mark.parametrize("field,n,lane_backend", CASES)
def test_interpreter_accounting_is_backend_free(field, n, lane_backend):
    values = field.random_vector(n, random.Random(n + 1))
    ref_out, ref_acct = interpreted_forward("python", field, values)
    out, acct = interpreted_forward(lane_backend, field, values)
    assert out == ref_out
    assert acct == ref_acct


#: Smaller sizes for the per-engine grid: every engine, both fields.
GRID_CASES = [
    pytest.param(GOLDILOCKS, 1 << 10, "numpy", id="goldilocks-numpy"),
    pytest.param(BN254_FR, 1 << 8, "multilimb", id="bn254-multilimb"),
]


def streaming_round_trip(cluster, values):
    engine = StreamingHostEngine(cluster)
    spectrum = engine.forward(list(values))
    return spectrum, engine.inverse(spectrum)


def hierarchical_interpreted(cluster, values):
    schedule = build_unintt_schedule(len(values), GPUS,
                                     cluster.element_bytes)
    staged, _ = synthesize_hierarchical(schedule, 4)
    return interpret_schedule(staged, cluster, list(values)), values


#: name -> (node_size, run(cluster, values) -> (output, values back)).
ENGINES = {
    "hierarchical": (4, lambda c, v: round_trip(
        HierarchicalUniNTTEngine(c), v)),
    "pairwise": (None, lambda c, v: round_trip(
        PairwiseExchangeEngine(c), v)),
    "baseline": (None, lambda c, v: round_trip(
        BaselineFourStepEngine(c), v)),
    "interp-hierarchical": (4, hierarchical_interpreted),
    "streaming": (None, streaming_round_trip),
}


@pytest.mark.parametrize("field,n,lane_backend", GRID_CASES)
@pytest.mark.parametrize("label,options", ablation_grid(),
                         ids=[label for label, _ in ablation_grid()])
def test_unintt_grid_coset_accounting_is_backend_free(label, options,
                                                      field, n,
                                                      lane_backend):
    """Every ablation arm, on a coset both ways."""
    values = field.random_vector(n, random.Random(n + 3))

    def run(cluster, vals):
        return round_trip(UniNTTEngine(cluster, options=options), vals,
                          coset_shift=7)

    ref_out, ref_acct = run_on("python", field, values, run)
    out, acct = run_on(lane_backend, field, values, run)
    assert ref_out[1] == values
    assert out == ref_out
    assert acct == ref_acct


@pytest.mark.parametrize("field,n,lane_backend", GRID_CASES)
@pytest.mark.parametrize("name", sorted(ENGINES))
def test_engine_accounting_is_backend_free(name, field, n, lane_backend):
    node_size, run = ENGINES[name]
    values = field.random_vector(n, random.Random(n + 4))
    ref_out, ref_acct = run_on("python", field, values, run, node_size)
    out, acct = run_on(lane_backend, field, values, run, node_size)
    assert ref_out[1] == values
    assert out == ref_out
    assert acct == ref_acct
