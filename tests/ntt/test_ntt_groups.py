"""``ntt_groups``: the batched small-NTT kernel against the per-group loop.

The oracle is the loop the multi-GPU engines used to run: one scalar
:func:`repro.ntt.radix2.ntt` per contiguous group, then ``vec_scale``,
on the pure-Python backend.  Hypothesis draws the backend, field,
length, group size and optional scale; every combination must agree
bit for bit.  Runs under the seeded "repro"/"ci" hypothesis profiles
from ``tests/conftest.py``.
"""

import dataclasses
import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import FieldError, NTTError
from repro.field import (
    BABYBEAR, BN254_FR, GOLDILOCKS, TEST_FIELD_97, get_backend, use_backend,
)
from repro.field.backend import numpy_available
from repro.field.vector import vec_scale
from repro.multigpu import DistributedVector, UniNTTEngine
from repro.ntt import radix2
from repro.ntt.batch import ntt_groups
from repro.ntt.twiddle import default_cache
from repro.sim import SimCluster

BACKENDS = ("python", "numpy", "multilimb") if numpy_available() \
    else ("python",)
FIELDS = (TEST_FIELD_97, BABYBEAR, GOLDILOCKS, BN254_FR)


def per_group_loop(field, values, size, root, scale):
    """The reference: one radix-2 call per group, on plain Python ints."""
    with use_backend("python"):
        out = []
        for base in range(0, len(values), size):
            out += radix2.ntt(field, values[base:base + size], root=root)
        return out if scale is None else vec_scale(field, out, scale)


@st.composite
def groups_case(draw):
    field = draw(st.sampled_from(FIELDS))
    log_len = draw(st.integers(0, min(8, field.two_adicity)))
    length = 1 << log_len
    gpus = draw(st.sampled_from([g for g in (2, 4, 8) if g <= length]
                                or [1]))
    size = draw(st.sampled_from(sorted({s for s in (1, 2, gpus, length)
                                        if s <= length})))
    values = draw(st.lists(st.integers(0, field.modulus - 1),
                           min_size=length, max_size=length))
    scale = draw(st.none() | st.integers(1, field.modulus - 1))
    inverse = draw(st.booleans())
    return field, values, size, scale, inverse


@given(case=groups_case(), backend=st.sampled_from(BACKENDS))
def test_matches_per_group_loop(case, backend):
    field, values, size, scale, inverse = case
    root = field.root_of_unity(size)
    if inverse:
        root = field.inv(root)
    want = per_group_loop(field, values, size, root, scale)
    with use_backend(backend):
        got = ntt_groups(field, list(values), size, root, scale)
    assert got == want
    assert all(type(v) is int for v in got)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_lane_sized_inputs(backend, field):
    """Lengths past the lane threshold, every group size in between."""
    rng = random.Random(7)
    length = 256
    values = field.random_vector(length, rng)
    for log_size in range(0, min(8, field.two_adicity) + 1):
        size = 1 << log_size
        root = field.root_of_unity(size)
        scale = rng.randrange(1, field.modulus)
        with use_backend(backend):
            got = ntt_groups(field, values, size, root, scale)
        assert got == per_group_loop(field, values, size, root, scale)


@pytest.mark.parametrize("backend", BACKENDS)
class TestRejects:
    def test_size_not_a_power_of_two(self, backend):
        with use_backend(backend), pytest.raises(NTTError,
                                                 match="power of two"):
            ntt_groups(GOLDILOCKS, [1] * 48, 3, 1)

    def test_size_zero(self, backend):
        with use_backend(backend), pytest.raises(NTTError,
                                                 match="power of two"):
            ntt_groups(GOLDILOCKS, [1] * 8, 0, 1)

    def test_size_does_not_divide_length(self, backend):
        with use_backend(backend), pytest.raises(NTTError,
                                                 match="does not divide"):
            ntt_groups(GOLDILOCKS, [1] * 40, 16, 1)

    def test_input_is_not_mutated(self, backend):
        values = GOLDILOCKS.random_vector(64, random.Random(3))
        before = list(values)
        with use_backend(backend):
            ntt_groups(GOLDILOCKS, values, 8,
                       GOLDILOCKS.root_of_unity(8), 5)
        assert values == before


@pytest.mark.skipif(not numpy_available(), reason="needs numpy")
class TestMultiLimbBatch:
    def test_lazy_bound_is_checked_on_the_group_size(self):
        """A batch of small transforms may be longer than the lazy-stage
        bound allows one transform to be."""
        from repro.field.multilimb import _MultiLimbKernel

        with use_backend("multilimb"):
            ops = get_backend().lane_ops(BN254_FR)
        tight = _MultiLimbKernel(BN254_FR.modulus)
        tight.schedule = dataclasses.replace(tight.schedule,
                                             max_lazy_stages=3)

        def table(size):
            return ops.pack_table(default_cache.powers(
                BN254_FR, BN254_FR.root_of_unity(size), size // 2))

        values = ops.pack(BN254_FR.random_vector(512, random.Random(5)))
        got = tight.ntt_core(values, table(8), 64)
        assert tight.unpack(got) == ops.unpack(
            ops.ntt_core(values, table(8), 64))
        with pytest.raises(FieldError, match="lazy-carry bound"):
            tight.ntt_core(values[:, :16], table(16))

    def test_cross_step_packs_once_per_gpu(self, monkeypatch):
        """A UniNTT forward packs the whole cluster's shards once for
        the local step and once for the cross step: two packs of n
        lanes, none per GPU and none of G lanes."""
        gpus, n = 8, 1 << 10
        packs = []
        with use_backend("multilimb") as backend:
            lane_ops = type(backend).lane_ops

            def counting_lane_ops(self, field):
                ops = lane_ops(self, field)
                if ops is None:
                    return None

                def pack(values):
                    packs.append(len(values))
                    return ops.pack(values)
                return dataclasses.replace(ops, pack=pack)

            monkeypatch.setattr(type(backend), "lane_ops",
                                counting_lane_ops)
            cluster = SimCluster(BN254_FR, gpus)
            engine = UniNTTEngine(cluster)
            values = BN254_FR.random_vector(n, random.Random(11))
            vec = DistributedVector.from_values(
                cluster, values, engine.input_layout(n))
            packs.clear()
            engine.forward(vec)
            assert packs == [n, n]
            packs.clear()
            engine.inverse(DistributedVector(
                cluster=cluster, layout=engine.output_layout(n)))
            assert packs == [n, n]
