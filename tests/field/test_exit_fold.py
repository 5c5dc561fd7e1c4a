"""The limb kernel's exit fold: scalings multiplied in at the last stage.

``_MultiLimbKernel.ntt_core`` takes an optional Montgomery-form exit
column or table and montmuls the lazy last-stage value by it instead of
running the Barrett exit.  An inverse transform's ``1/n`` rides it as a
column, the coset INTT's ``n^-1 g^-i`` as one cached table, and
``ntt_lanes``' ``post`` table and ``scale`` as one size-major table.
These tests pin:

* the exit at its value bound: the lazy value the last stage may hand
  it reaches ``(2s+1)p`` with ``s = max_lazy_stages``, and any value
  below ``R`` must land canonical and exact;
* the INTT and coset INTT bit-exact against the Python backend on the
  mid-size fields of ``tests/field/test_multilimb.py`` and both pairing
  fields.  Their deepest admissible transform is ``2^min(two-adicity,
  max_lazy_stages)`` points, past 2^20 on every one of them, so the
  transforms run at 2^12 and the bound itself is driven directly;
* the batched ``post``/``scale`` exit of ``ntt_groups`` against the
  per-group loop, one :class:`StepTable` shared across group counts;
* that the bit-exact comparison catches a folded table without its
  ``n^-1`` (a mutation check).
"""

import random

import pytest

from repro.field import (
    BLS12_381_FR, BN254_FR, NumPyBackend, numpy_available, use_backend,
)
from repro.field.packed import pack_values, packed_coset_intt, packed_intt
from repro.ntt import coset_intt, intt, radix2
from repro.ntt.batch import StepTable, ntt_groups
from repro.ntt.twiddle import TwiddleCache
from tests.field.test_multilimb import MID_FIELDS

pytestmark = pytest.mark.skipif(not numpy_available(),
                                reason="the limb kernel needs numpy")

FIELDS = MID_FIELDS + (BN254_FR, BLS12_381_FR)
LOG_N = 12


def _limbs(kern, values):
    import numpy as np

    arr = np.empty((kern.L, len(values)), dtype=np.uint64)
    for i, v in enumerate(values):
        for j in range(kern.L):
            arr[j, i] = (v >> (kern.k * j)) & kern.schedule.mask
    return arr


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_exit_lands_exact_at_the_lazy_bound(field):
    """Every value the last stage may leave (< R) exits canonical."""
    kern = NumPyBackend()._kernel(field)
    p, R = field.modulus, kern.schedule.r
    stages = kern.schedule.max_lazy_stages
    assert (2 * stages + 1) * p < R
    lazy = [R - 1, (2 * stages + 1) * p - 1, (2 * stages + 1) * p - p,
            2 * p - 1, p, p - 1, 0]
    rng = random.Random(field.modulus)
    multipliers = [1, p - 1, field.inv(1 << LOG_N)] + \
        [rng.randrange(p) for _ in range(4)]
    for m in multipliers:
        column = kern.pack_table([m])
        table = kern.pack_table([m] * len(lazy))
        for exit in (column, table):
            out = kern.mul_mont(_limbs(kern, lazy), exit)
            assert kern.unpack(out) == [v * m % p for v in lazy]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("log_n", [0, 1, 5, LOG_N])
def test_intt_and_coset_intt_match_python(field, log_n):
    n = 1 << log_n
    rng = random.Random(log_n * 7919 + field.modulus % 1000)
    values = field.random_vector(n, rng)
    shift = field.multiplicative_generator
    with use_backend("python"):
        want = intt(field, values)
        want_coset = coset_intt(field, values, shift)
    ops = NumPyBackend().lane_ops(field)
    arr = ops.pack(values)
    cache = TwiddleCache()
    assert ops.unpack(packed_intt(ops, arr, cache)) == want
    assert ops.unpack(packed_coset_intt(ops, arr, shift, cache)) == \
        want_coset
    # Warm: the cached column and folded table give the same answers.
    assert ops.unpack(packed_coset_intt(ops, arr, shift, cache)) == \
        want_coset
    assert ops.unpack(packed_intt(ops, arr, cache)) == want


@pytest.mark.parametrize("field", (BN254_FR, MID_FIELDS[3]),
                         ids=lambda f: f.name)
@pytest.mark.parametrize("scale", [None, 12345])
@pytest.mark.parametrize("inverse", [False, True])
def test_groups_post_and_scale_ride_the_exit(field, scale, inverse):
    """One post table at every group count: size-major exit mirrors
    never stand in for each other (or for another scale)."""
    rng = random.Random(5)
    n = 256
    values = field.random_vector(n, rng)
    post = StepTable(field.random_vector(n, rng))
    p = field.modulus
    for size in (256, 16, 2):
        root = field.root_of_unity(size)
        if inverse:
            root = field.inv(root)
        with use_backend("python"):
            want = []
            for base in range(0, n, size):
                want += radix2.ntt(field, values[base:base + size],
                                   root=root)
        want = [v * t % p for v, t in zip(want, post.values)]
        if scale is not None:
            want = [v * scale % p for v in want]
        with use_backend("multilimb"):
            got = ntt_groups(field, values, size, root, scale, post=post)
            again = ntt_groups(field, values, size, root, scale, post=post)
        assert got == want, f"size={size}"
        assert again == want, f"size={size} (warm)"


@pytest.mark.parametrize("field", (BN254_FR, MID_FIELDS[0]),
                         ids=lambda f: f.name)
def test_dropping_the_folded_inverse_size_is_caught(field, monkeypatch):
    """Mutation check: a folded coset table without its ``n^-1`` (the
    plain ``g^-i`` table) must fail the bit-exact comparison."""
    rng = random.Random(11)
    n = 1 << 6
    values = field.random_vector(n, rng)
    shift = field.multiplicative_generator
    with use_backend("python"):
        want = coset_intt(field, values, shift)
    ops = NumPyBackend().lane_ops(field)
    arr = pack_values(ops, values)
    assert ops.unpack(packed_coset_intt(ops, arr, shift,
                                        TwiddleCache())) == want
    plain = TwiddleCache.packed_powers

    def without_scale(self, field, root, count, pack, fmt="u64", scale=1):
        return plain(self, field, root, count, pack, fmt)

    monkeypatch.setattr(TwiddleCache, "packed_powers", without_scale)
    got = ops.unpack(packed_coset_intt(ops, arr, shift, TwiddleCache()))
    assert got != want
    p = field.modulus
    assert got == [v * n % p for v in want]
