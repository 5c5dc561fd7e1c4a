"""The field backend changes how a transform runs on the host, never what
it charges.

A UniNTT forward (plain or on a coset) + inverse round trip (and the
same forward run by the schedule interpreter) on G=8 simulated GPUs
must give, on the reference ``python`` backend and on a lane backend,
bit-identical outputs, the same per-GPU ``GpuCounters``, the same
``bytes_by_level()`` and the same trace event list.
"""

import random

import pytest

from repro.analysis.interp import interpret_schedule
from repro.field import BN254_FR, GOLDILOCKS, use_backend
from repro.field.backend import numpy_available
from repro.multigpu import DistributedVector, UniNTTEngine
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


def engine_round_trip(backend, field, values, coset_shift=None):
    n = len(values)
    with use_backend(backend):
        cluster = SimCluster(field, GPUS)
        engine = UniNTTEngine(cluster)
        engine.forward(DistributedVector.from_values(
            cluster, values, engine.input_layout(n)),
            coset_shift=coset_shift)
        spectrum = cluster.peek_shards()
        back = engine.inverse(DistributedVector(
            cluster=cluster, layout=engine.output_layout(n))).to_values()
    return (spectrum, back), accounting(cluster)


def interpreted_forward(backend, field, values):
    n = len(values)
    with use_backend(backend):
        cluster = SimCluster(field, GPUS)
        schedule = build_unintt_schedule(n, GPUS, cluster.element_bytes)
        out = interpret_schedule(schedule, cluster, list(values))
    return out, accounting(cluster)


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
    """The coset scaling fused into the local twiddle pass runs on the
    backend's lanes too, and charges the same."""
    values = field.random_vector(n, random.Random(n + 2))
    ref_out, ref_acct = engine_round_trip("python", field, values,
                                          coset_shift=7)
    out, acct = engine_round_trip(lane_backend, field, values,
                                  coset_shift=7)
    assert out == ref_out
    assert acct == ref_acct


@pytest.mark.parametrize("field,n,lane_backend", CASES)
def test_interpreter_accounting_is_backend_free(field, n, lane_backend):
    values = field.random_vector(n, random.Random(n + 1))
    ref_out, ref_acct = interpreted_forward("python", field, values)
    out, acct = interpreted_forward(lane_backend, field, values)
    assert out == ref_out
    assert acct == ref_acct
