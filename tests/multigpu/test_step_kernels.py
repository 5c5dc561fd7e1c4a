"""``local_step``: one cluster-wide host kernel against the per-GPU loop.

The oracle is the loop the engines used to run: on every GPU in turn,
multiply the shard by its own table ``base^(e_s * j)``, transform each
contiguous group with one scalar :func:`repro.ntt.radix2.ntt`, multiply
by the post-table, then scale, all on plain Python ints.  Hypothesis
draws the backend, field, GPU count, shard and group sizes, and which of
the pre-table, post-table and scalar are present; every combination must
agree bit for bit, and the tables come from the memoized
:func:`repro.multigpu.base.twiddle_table`.  Runs under the seeded
"repro"/"ci" hypothesis profiles from ``tests/conftest.py``.
"""

import pytest
from hypothesis import given, strategies as st

from repro.errors import PartitionError, SimulationError
from repro.field import (
    BABYBEAR, BN254_FR, GOLDILOCKS, TEST_FIELD_97, use_backend,
)
from repro.field.backend import numpy_available
from repro.multigpu import BlockLayout, CyclicLayout, SpectralLayout
from repro.multigpu.base import local_step, twiddle_table
from repro.ntt import radix2
from repro.sim import SimCluster

BACKENDS = ("python", "numpy", "multilimb") if numpy_available() \
    else ("python",)
FIELDS = (TEST_FIELD_97, BABYBEAR, GOLDILOCKS, BN254_FR)


def gpu_rows(field, base, exponents, width):
    """Each GPU's table, built element by element."""
    p = field.modulus
    return [[pow(base, e * j, p) for j in range(width)] for e in exponents]


def per_gpu_loop(field, shards, size, root, pre, post, scale):
    """The reference: every GPU's step on its own, on plain Python ints."""
    p = field.modulus
    out = []
    with use_backend("python"):
        for s, shard in enumerate(shards):
            x = list(shard)
            if pre is not None:
                x = [v * t % p for v, t in zip(x, pre[s])]
            if size > 1:
                for start in range(0, len(x), size):
                    x[start:start + size] = radix2.ntt(
                        field, x[start:start + size], root=root)
            if post is not None:
                x = [v * t % p for v, t in zip(x, post[s])]
            if scale is not None:
                x = [v * scale % p for v in x]
            out.append(x)
    return out


@st.composite
def step_case(draw):
    field = draw(st.sampled_from(FIELDS))
    gpus = draw(st.sampled_from((1, 2, 4, 8)))
    log_m = draw(st.integers(0, min(6, field.two_adicity)))
    m = 1 << log_m
    size = 1 << draw(st.integers(0, log_m))
    p = field.modulus
    shards = [draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m))
              for _ in range(gpus)]
    tables = []
    for _ in ("pre", "post"):
        if draw(st.booleans()):
            base = draw(st.integers(1, p - 1))
            exponents = draw(st.sampled_from(
                [list(range(gpus)), [s % 2 for s in range(gpus)]]))
            tables.append((base, exponents))
        else:
            tables.append(None)
    scale = draw(st.none() | st.integers(1, p - 1))
    inverse = draw(st.booleans())
    return field, shards, size, tables, scale, inverse


@given(case=step_case(), backend=st.sampled_from(BACKENDS))
def test_matches_per_gpu_loop(case, backend):
    field, shards, size, (pre, post), scale, inverse = case
    m = len(shards[0])
    root = field.root_of_unity(size)
    if inverse:
        root = field.inv(root)
    want = per_gpu_loop(
        field, shards, size, root,
        None if pre is None else gpu_rows(field, *pre, m),
        None if post is None else gpu_rows(field, *post, m), scale)
    with use_backend(backend):
        cluster = SimCluster(field, len(shards))
        cluster.load_shards(shards)
        local_step(
            cluster, size, root,
            pre=None if pre is None else twiddle_table(field, *pre, m),
            post=None if post is None else twiddle_table(field, *post, m),
            scale=scale)
    got = cluster.peek_shards()
    assert got == want
    assert all(type(v) is int for shard in got for v in shard)


@pytest.mark.parametrize("layout_cls", (BlockLayout, CyclicLayout,
                                        SpectralLayout))
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_table_read_through_a_layout(field, layout_cls):
    """Slot (gpu, local) holds the rows' entry at its global index."""
    gpus, width = 4, 8
    layout = layout_cls(n=2 * width, gpu_count=gpus)
    rows = [v for row in gpu_rows(field, 3, (0, 1), width) for v in row]
    table = twiddle_table(field, 3, range(2), width, layout=layout)
    assert list(table.values) == [
        rows[layout.global_index(gpu, local)]
        for gpu in range(gpus) for local in range(layout.shard_size)]


def test_memo_key_covers_the_modulus():
    """One base, exponents and width give each field its own table."""
    small = twiddle_table(TEST_FIELD_97, 5, range(2), 4)
    big = twiddle_table(GOLDILOCKS, 5, range(2), 4)
    assert small is not big
    assert list(small.values) == [1, 1, 1, 1, 1, 5, 25, 28]
    assert list(big.values) == [1, 1, 1, 1, 1, 5, 25, 125]
    assert twiddle_table(GOLDILOCKS, 5, [0, 1], 4) is big


class TestRejects:
    def test_group_straddling_two_gpus(self):
        cluster = SimCluster(GOLDILOCKS, 2)
        cluster.load_shards([[1, 2], [3, 4]])
        with pytest.raises(PartitionError, match="does not divide"):
            local_step(cluster, 4, GOLDILOCKS.root_of_unity(4))

    def test_uneven_shards(self):
        cluster = SimCluster(GOLDILOCKS, 2)
        cluster.load_shards([[1, 2], [3]])
        with pytest.raises(SimulationError, match="shard has 1 elements"):
            local_step(cluster, 1, 1)
