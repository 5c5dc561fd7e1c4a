"""Exact row dot products on packed lanes, against ``vec_dot`` per row.

:class:`repro.field.packed.RowDotTable` gives every ``n``-lane row's
dot product with one table from ``float64`` matrix products over
32-bit limbs of the values' fixed-width words.  The oracle is
``vec_dot`` under the ``python`` backend, row by row, for every lane
format of the numpy backend: direct ``uint64`` lanes (p < 2^32),
Goldilocks, the two- and three-limb planes of 33..64-bit primes
(Mont38, Mont61, P58) and the nine-limb planes of BN254-Fr and
BLS12-381-Fr.  The overflow edge is every entry ``p - 1`` over
``REPLICATE_MAX_LANES`` lanes, as one row and as ``2^13 / n`` rows.
The serve check reaches the same sums through lists on the ``python``
backend and through lane views on ``numpy``.
"""

import random

import pytest

from repro.errors import NTTError
from repro.field import (
    BABYBEAR, BLS12_381_FR, BN254_FR, GOLDILOCKS, numpy_available,
    use_backend,
)
from repro.field.backend import sized_lane_ops
from repro.field.packed import ROW_DOT_BLOCK, RowDotTable, lane_words
from repro.field.vector import vec_dot
from repro.multigpu import BatchedDistributedNTT
from repro.multigpu.batch_engine import REPLICATE_MAX_LANES
from repro.ntt.batch import LaneRow
from repro.sim import SimCluster
from tests.field.test_backend import MONT38, MONT61, P58

pytestmark = pytest.mark.skipif(not numpy_available(),
                                reason="numpy backend unavailable")

FIELDS = (BABYBEAR, GOLDILOCKS, MONT38, MONT61, P58, BN254_FR,
          BLS12_381_FR)


def oracle(field, table, values):
    n = len(table)
    with use_backend("python"):
        return [vec_dot(field, table, values[base:base + n])
                for base in range(0, len(values), n)]


def packed_dots(field, table, values):
    with use_backend("numpy"):
        ops = sized_lane_ops(field, len(values))
        return RowDotTable(field, table).dots(
            lane_words(ops, ops.pack(values)))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("n", [REPLICATE_MAX_LANES, 256],
                         ids=["one-row", "32-rows"])
def test_overflow_edge_every_entry_p_minus_1(field, n):
    top = field.modulus - 1
    values = [top] * REPLICATE_MAX_LANES
    table = [top] * n
    assert packed_dots(field, table, values) == oracle(field, table, values)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("n,rows", [(32, 1), (64, 5), (1024, 3),
                                    (2 * ROW_DOT_BLOCK, 2)])
def test_random_rows(field, n, rows):
    rng = random.Random(n * rows)
    p = field.modulus
    values = field.random_vector(n * rows, rng)
    values[:4] = [0, 1, p - 1, p // 2]
    table = field.random_vector(n, rng)
    assert packed_dots(field, table, values) == oracle(field, table, values)


@pytest.mark.parametrize("field", (GOLDILOCKS, BN254_FR),
                         ids=lambda f: f.name)
def test_a_kept_table_serves_many_arrays(field):
    rng = random.Random(3)
    table = field.random_vector(128, rng)
    kept = RowDotTable(field, table)
    assert kept.values == tuple(table)
    with use_backend("numpy"):
        ops = sized_lane_ops(field, 128)
        for rows in (1, 2, 7):
            values = field.random_vector(128 * rows, rng)
            assert kept.dots(lane_words(ops, ops.pack(values))) == \
                oracle(field, table, values)
        with pytest.raises(NTTError, match="rows"):
            kept.dots(lane_words(ops, ops.pack(
                field.random_vector(192, rng))))


@pytest.mark.parametrize("field", (GOLDILOCKS, BN254_FR),
                         ids=lambda f: f.name)
def test_serve_lanes_dot_alike_on_both_backends(field):
    """The replicate route hands the check plain lists on ``python`` and
    packed lane views on ``numpy``; both give every lane the same sums."""
    rng = random.Random(9)
    n = 256
    batch = [field.random_vector(n, rng) for _ in range(5)]
    table = RowDotTable(field, field.random_vector(n, rng))
    sums = {}
    for backend in ("python", "numpy"):
        with use_backend(backend):
            engine = BatchedDistributedNTT(SimCluster(field, 4))
            engine.forward(batch)
            lanes = engine.lanes
            kinds = {type(lane) for lane in lanes.inputs + lanes.outputs}
            assert kinds == ({list} if backend == "python" else {LaneRow})
            sums[backend] = [
                lane.dot(table) if backend == "numpy"
                else vec_dot(field, table.values, lane)
                for lane in lanes.inputs + lanes.outputs]
    assert sums["python"] == sums["numpy"]
