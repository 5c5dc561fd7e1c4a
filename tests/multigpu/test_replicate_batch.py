"""The batched replicate route against the per-vector loop it replaced.

``BatchedDistributedNTT(strategy="replicate")`` runs a whole batch as
``ntt_groups`` host kernels of at most ``REPLICATE_MAX_LANES`` lanes.
The oracle below is the per-vector route: load each vector on its
round-robin GPU, transform it with one :func:`repro.ntt.radix2.ntt` /
``intt`` call, charge it, then record one ``local-compute`` event and
call the fault hook once.  Hypothesis draws the backend, field, size
and batch (across the lane-budget edge); outputs, per-GPU counters,
the trace event tuple and the final shards must all be identical, and
the hook must see the very lanes the engine returns: the lists
themselves, or views over the packed results they are unpacked from.
"""

import random

import pytest
from hypothesis import given, strategies as st

from repro.field import BABYBEAR, BN254_FR, GOLDILOCKS, use_backend
from repro.field.backend import numpy_available
from repro.multigpu import BatchedDistributedNTT
from repro.multigpu import accounting as acct
from repro.multigpu.abft import AbftChecker
from repro.multigpu.batch_engine import REPLICATE_MAX_LANES
from repro.ntt import radix2
from repro.ntt.batch import LaneRow
from repro.sim import FaultInjector, FaultPlan, SimCluster
from repro.sim.trace import TraceEvent

BACKENDS = ("python", "numpy") if numpy_available() else ("python",)
FIELDS = (GOLDILOCKS, BABYBEAR, BN254_FR)
GPUS = 4


def per_vector_replicate(engine, batch, inverse):
    """The per-vector replicate loop: one radix-2 call per vector."""
    cluster = engine.cluster
    n = len(batch[0])
    g = cluster.gpu_count
    mem = acct.local_ntt_mem_bytes(n, cluster.element_bytes, engine.tile)
    muls = acct.local_ntt_muls(n) + (n if inverse else 0)
    transform = radix2.intt if inverse else radix2.ntt
    out, per_gpu_count, buffers = [], [0] * g, {}
    for index, vec in enumerate(batch):
        gpu = cluster.gpus[index % g]
        gpu.load(list(vec))
        gpu.shard = transform(cluster.field, gpu.shard)
        result = list(gpu.shard)
        out.append(result)
        buffers.setdefault(gpu.gpu_id, []).append(result)
        gpu.charge_compute(muls, mem)
        per_gpu_count[index % g] += 1
    detail = f"{engine.name}-{'intt' if inverse else 'ntt'}"
    cluster.trace.record(TraceEvent(
        kind="local-compute", level="gpu",
        max_bytes_per_gpu=max(per_gpu_count) * mem,
        total_bytes=len(batch) * mem,
        field_muls=len(batch) * muls, detail=detail))
    cluster.local_compute_hook(buffers, detail)
    return out


class HookRecorder:
    """A fault injector stand-in that keeps what the hook was handed."""

    def __init__(self):
        self.calls = []

    def on_local_compute(self, cluster, buffers, detail=""):
        self.calls.append((buffers, detail))


def run(field, batch, inverse, route):
    recorder = HookRecorder()
    engine = BatchedDistributedNTT(
        SimCluster(field, GPUS, injector=recorder), strategy="replicate")
    if route == "batched":
        out = engine.inverse(batch) if inverse else engine.forward(batch)
    else:
        out = per_vector_replicate(engine, batch, inverse)
    cluster = engine.cluster
    return {
        "out": out,
        "counters": [gpu.counters for gpu in cluster.gpus],
        "events": tuple(cluster.trace.events),
        "shards": [gpu.shard for gpu in cluster.gpus],
        "hook": recorder.calls,
    }


def assert_same_run(field, batch, inverse, backend):
    with use_backend(backend):
        got = run(field, batch, inverse, "batched")
        want = run(field, batch, inverse, "per-vector")
    for key in ("out", "counters", "events", "shards"):
        assert got[key] == want[key], key
    assert all(type(v) is int for vec in got["out"] for v in vec)
    [(buffers, detail)] = got["hook"]
    assert detail == want["hook"][0][1]
    assert list(buffers) == list(want["hook"][0][0])
    for i, gpu_id in enumerate(buffers):
        lanes = got["out"][i::GPUS]
        assert len(buffers[gpu_id]) == len(lanes)
        assert all(a is b or (isinstance(a, LaneRow) and list(a) == b)
                   for a, b in zip(buffers[gpu_id], lanes))
        # A shard is the device's own copy, not a returned lane.
        assert all(got["shards"][i] is not lane for lane in lanes)


@st.composite
def replicate_case(draw):
    field = draw(st.sampled_from(FIELDS))
    log_n = draw(st.integers(0, 12))
    batch = draw(st.integers(1, 9))
    seed = draw(st.integers(0, 2**32 - 1))
    inverse = draw(st.booleans())
    rng = random.Random(seed)
    vectors = [field.random_vector(1 << log_n, rng) for _ in range(batch)]
    return field, vectors, inverse


@given(case=replicate_case(), backend=st.sampled_from(BACKENDS))
def test_batched_route_matches_per_vector_loop(case, backend):
    field, vectors, inverse = case
    assert_same_run(field, vectors, inverse, backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("inverse", [False, True], ids=["fwd", "inv"])
def test_trace_muls_equal_device_counters(backend, inverse):
    """The ``local-compute`` event records the multiplications the
    devices are charged, the inverse's 1/n scale included: six 64-point
    Goldilocks vectors on four GPUs charge 6 * 192 forward and
    6 * (192 + 64) inverse."""
    rng = random.Random(6)
    vectors = [GOLDILOCKS.random_vector(64, rng) for _ in range(6)]
    with use_backend(backend):
        engine = BatchedDistributedNTT(SimCluster(GOLDILOCKS, GPUS),
                                       strategy="replicate")
        engine.inverse(vectors) if inverse else engine.forward(vectors)
    cluster = engine.cluster
    charged = sum(gpu.counters.field_muls for gpu in cluster.gpus)
    assert sum(event.field_muls for event in cluster.trace) == charged
    assert charged == (1536 if inverse else 1152)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("log_n,batch", [
    (12, 2), (12, 3), (10, 8), (10, 9), (8, 32), (8, 33)])
def test_lane_budget_edge(backend, log_n, batch):
    """Batches that fill one host kernel exactly, and one lane past it."""
    field = GOLDILOCKS if backend == "python" else BN254_FR
    rng = random.Random(log_n * 100 + batch)
    vectors = [field.random_vector(1 << log_n, rng) for _ in range(batch)]
    assert (batch << log_n) // REPLICATE_MAX_LANES in (1, 2)
    for inverse in (False, True):
        assert_same_run(field, vectors, inverse, backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("inverse", [False, True])
def test_hooked_bitflip_corrupts_the_returned_lane_and_abft_catches_it(
        backend, inverse):
    field = GOLDILOCKS
    n = 256
    rng = random.Random(5)
    batch = [field.random_vector(n, rng) for _ in range(6)]
    with use_backend(backend):
        clean = BatchedDistributedNTT(SimCluster(field, GPUS))
        want = clean.inverse(batch) if inverse else clean.forward(batch)
        plan = FaultPlan.from_specs(["compute-bitflip@0:gpu=1,delta=9"],
                                    seed=3)
        cluster = SimCluster(field, GPUS,
                             injector=FaultInjector(plan, field.modulus))
        engine = BatchedDistributedNTT(cluster)
        got = engine.inverse(batch) if inverse else engine.forward(batch)
        wrong = [i for i in range(len(batch)) if got[i] != want[i]]
        # GPU 1 owns lanes 1 and 5; the flip lands in exactly one.
        assert len(wrong) == 1 and wrong[0] % GPUS == 1
        assert cluster.injector.compute_faults_fired == 1
        checker = AbftChecker(cluster)
        verdicts = [checker.verify_leg(inputs=x, outputs=y, n=n,
                                       inverse=inverse)
                    for x, y in zip(batch, got)]
    assert [i for i, v in enumerate(verdicts) if not v.ok] == wrong


@pytest.mark.skipif(not numpy_available(), reason="numpy scalars need numpy")
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_numpy_scalar_and_bool_lanes_pack_like_ints(backend, field):
    """The replicate route packs a chunk from its vectors' values as they
    are when every one is an int; bools and numpy scalars (a negative
    int64 among them, which a uint64 cast would wrap) give the very
    results their int values give."""
    import numpy as np

    n = 64
    rng = random.Random(17)
    ints = [field.random_vector(n, rng) for _ in range(3)]
    ints[0][:4] = [1, 0, 1, 1]
    ints[1][:3] = [5, 7, field.modulus - 3]
    odd = [list(vec) for vec in ints]
    odd[0][:4] = [True, False, np.bool_(True), np.uint64(1)]
    odd[1][:3] = [np.int64(5), np.uint32(7), np.int64(-3)]
    with use_backend(backend):
        for inverse in (False, True):
            want = BatchedDistributedNTT(SimCluster(field, GPUS))
            got = BatchedDistributedNTT(SimCluster(field, GPUS))
            run = "inverse" if inverse else "forward"
            expected = getattr(want, run)(ints)
            assert getattr(got, run)(odd) == expected
            p = field.modulus
            assert [[v % p for v in row] for row in got.lanes.inputs] == \
                [[v % p for v in row] for row in want.lanes.inputs]
