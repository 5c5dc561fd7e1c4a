"""The limb transform's unit-twiddle group: Barrett-reduced, not montmulled.

In the wide stages of ``_MultiLimbKernel``'s transform (butterfly groups
spanning at least :data:`~repro.field.multilimb.GROUP0_MIN_STRIDE`
lanes), group 0's twiddle is 1, so its odd halves are reduced by the
two-limb Barrett step instead of montmulled by ``1·R``.  The butterfly
that follows needs every twiddled value below ``2p``.  These tests pin:

* the step at the lazy edge: ``(2s+1)p - 1`` (``s`` =
  ``max_lazy_stages``, the largest value a stage may hand it) and
  ``R - 1`` land below ``2p``, congruent, with canonical limbs, on
  BN254-Fr, BLS12-381-Fr and the four mid-size fields;
* one whole stage fed those values, against integer arithmetic: group
  0's lanes and the montmulled groups, then the butterfly's exact
  ``a + u`` and ``a - u + 2p``;
* transforms wide enough to take the path, bit-exact against the
  Python backend, single and batched;
* that the stage check catches a group 0 left unreduced (a mutation).
"""

import random

import pytest

from repro.field import (
    BLS12_381_FR, BN254_FR, NumPyBackend, numpy_available, use_backend,
)
from repro.field import multilimb
from repro.field.simd import vectorized_ntt
from repro.ntt import ntt
from tests.field.test_exit_fold import _limbs
from tests.field.test_multilimb import MID_FIELDS

pytestmark = pytest.mark.skipif(not numpy_available(),
                                reason="the limb kernel needs numpy")

FIELDS = (BN254_FR, BLS12_381_FR) + MID_FIELDS


def _edges(kern) -> list[int]:
    """The values a stage may hand its twiddle step, largest first."""
    p, R = kern.p, kern.schedule.r
    s = kern.schedule.max_lazy_stages
    return [R - 1, (2 * s + 1) * p - 1, (2 * s + 1) * p - p, 2 * p - 1,
            p, p - 1, 0]


def _ints(kern, arr) -> list[int]:
    """Lanes of an ``(L, n)`` array as ints, limbs taken as they are."""
    return [kern.lane_int(arr, i) for i in range(arr.shape[-1])]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_barrett_step_lands_below_2p_at_the_lazy_edge(field):
    import numpy as np

    kern = NumPyBackend()._kernel(field)
    p = field.modulus
    values = _edges(kern)
    out = np.empty((kern.L, len(values)), dtype=np.uint64)
    kern._barrett_lazy(_limbs(kern, values), out)
    assert int(out.max()) <= kern.schedule.mask  # canonical limbs
    got = _ints(kern, out)
    assert all(v < 2 * p for v in got)
    assert [v % p for v in got] == [v % p for v in values]


def _stage_matches(kern, seed: int) -> bool:
    """Run one m = 2 stage whose lanes sit at the lazy edge; compare
    the twiddled halves and the butterfly outputs with integers."""
    import numpy as np

    p, L = kern.p, kern.L
    stride = multilimb.GROUP0_MIN_STRIDE
    m, half = 2, 2 * multilimb.GROUP0_MIN_STRIDE
    rng = random.Random(seed)
    edges = _edges(kern)
    # Lanes grouped as (m, 2, stride): even and odd halves of each group.
    values = [edges[i % len(edges)] if rng.random() < 0.7
              else rng.randrange(kern.schedule.r)
              for i in range(2 * half)]
    x = _limbs(kern, values)
    w = rng.randrange(1, p)
    stage = kern.pack_table([1, w])
    sc = kern.scratch(half)
    u = kern._twiddle_groups(x.reshape(L, m, 2, stride), stage, sc)
    odd = [values[g * 2 * stride + stride + i]
           for g in range(m) for i in range(stride)]
    even = [values[g * 2 * stride + i]
            for g in range(m) for i in range(stride)]
    twiddled = _ints(kern, u)
    if any(t >= 2 * p for t in twiddled):
        return False
    if [t % p for t in twiddled] != [
            v * (1 if i < stride else w) % p for i, v in enumerate(odd)]:
        return False
    y = np.empty((L, 2 * half), dtype=np.uint64)
    # The even half left an earlier stage: below (2s - 1)p, so a + u
    # stays below R, and a - u + 2p is never negative while u < 2p.
    top = (2 * kern.schedule.max_lazy_stages - 1) * p
    even = [v % top for v in even]
    a = _limbs(kern, even)
    kern.butterfly_stage(a, u, y[:, :half], y[:, half:], sc["c0"], sc["c1"])
    sums = _ints(kern, y[:, :half])
    diffs = _ints(kern, y[:, half:])
    return (sums == [e + t for e, t in zip(even, twiddled)]
            and diffs == [e - t + 2 * p for e, t in zip(even, twiddled)])


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_a_stage_with_group0_at_the_edge_is_exact(field):
    kern = NumPyBackend()._kernel(field)
    assert _stage_matches(kern, seed=field.modulus % 997)


@pytest.mark.parametrize("field", (BN254_FR, MID_FIELDS[0], MID_FIELDS[3]),
                         ids=lambda f: f.name)
def test_leaving_group0_unreduced_is_caught(field, monkeypatch):
    """Mutation check: group 0 copied through without the Barrett step
    hands the butterfly values up to R, which must fail the check."""
    import numpy as np

    kern = NumPyBackend()._kernel(field)

    def unreduced(x, out):
        np.copyto(out, x)

    monkeypatch.setattr(kern, "_barrett_lazy", unreduced)
    assert not _stage_matches(kern, seed=3)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("log_n,batch", [(11, 1), (12, 1), (13, 1),
                                         (10, 4), (12, 2)])
def test_wide_transforms_match_python(field, log_n, batch):
    n = 1 << log_n
    assert n * batch // 4 >= multilimb.GROUP0_MIN_STRIDE  # takes the path
    rng = random.Random(log_n * 31 + batch)
    vectors = [field.random_vector(n, rng) for _ in range(batch)]
    with use_backend("python"):
        want = [ntt(field, v) for v in vectors]
    ops = NumPyBackend().lane_ops(field)
    # Size-major: element i of vector g at lane i * batch + g.
    arr = ops.pack([v[i] for i in range(n) for v in vectors])
    got = ops.unpack(vectorized_ntt(ops, arr, batch=batch))
    assert [got[g::batch] for g in range(batch)] == want
