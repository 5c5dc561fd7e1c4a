"""The ``numpy`` backend against ``python`` on the wide ZKP fields.

``numpy`` runs BN254-Fr and BLS12-381-Fr on limb planes: list-in,
list-out calls pack, run the limb kernels and unpack, while ``dot`` on
two plain lists stays one big-int sum.  Every list entry point must
return exactly what the pure-Python reference returns, at every size
from 2^0 to 2^12: the radix-2 transforms, the batched small transforms,
the ``vec_*`` helpers, and ``dot`` on lists and on packed operands.
"""

import random

import pytest

from repro.field import (
    BLS12_381_FR, BN254_FR, NumPyBackend, numpy_available, use_backend,
    vec_add, vec_dot, vec_inv, vec_mul, vec_neg, vec_pow_series, vec_scale,
    vec_sub, vec_sum,
)
from repro.ntt import radix2
from repro.ntt.batch import ntt_groups

pytestmark = pytest.mark.skipif(not numpy_available(),
                                reason="numpy backend unavailable")

WIDE = (BN254_FR, BLS12_381_FR)


def vectors(field, n, seed):
    """Two length-``n`` vectors led by carry-stressing edge values."""
    p = field.modulus
    rng = random.Random(repr((field.name, n, seed)))
    edge = [0, 1, p - 1, p // 2, (1 << 64) - 1, 1 << 128]
    a = (edge + field.random_vector(n, rng))[:n]
    b = (field.random_vector(n, rng) + edge[::-1])[-n:]
    return a, b


def on_both(fn):
    """``fn()`` under python and under numpy: ``(reference, got)``."""
    with use_backend("python"):
        want = fn()
    with use_backend("numpy"):
        got = fn()
    return want, got


@pytest.mark.parametrize("log_n", range(13))
@pytest.mark.parametrize("field", WIDE, ids=lambda f: f.name)
class TestWideLists:
    def test_transforms(self, field, log_n):
        n = 1 << log_n
        a, _ = vectors(field, n, "ntt")
        for transform in (radix2.ntt, radix2.intt):
            want, got = on_both(lambda: transform(field, a))
            assert got == want, transform.__name__
        size = min(n, 8)
        root = field.root_of_unity(size)
        scale = field.inv(size)
        want, got = on_both(lambda: ntt_groups(field, a, size, root, scale))
        assert got == want

    def test_vector_ops(self, field, log_n):
        n = 1 << log_n
        a, b = vectors(field, n, "vec")
        s = a[-1] or 3
        for name, fn in (
                ("add", lambda: vec_add(field, a, b)),
                ("sub", lambda: vec_sub(field, a, b)),
                ("mul", lambda: vec_mul(field, a, b)),
                ("scale", lambda: vec_scale(field, a, s)),
                ("neg", lambda: vec_neg(field, a)),
                ("pow_series", lambda: vec_pow_series(field, s, n, b[0])),
                ("inv", lambda: vec_inv(field, [v or 1 for v in a])),
                ("sum", lambda: vec_sum(field, a)),
                ("dot", lambda: vec_dot(field, a, b))):
            want, got = on_both(fn)
            assert got == want, name

    def test_dot_on_packed_operands(self, field, log_n):
        n = 1 << log_n
        a, b = vectors(field, n, "dot")
        with use_backend("python"):
            want = vec_dot(field, a, b)
        backend = NumPyBackend()
        pa, pb = backend.pack(field, a), backend.pack(field, b)
        assert backend.dot(field, pa, pb) == want
        assert backend.dot(field, pa, b) == want
        assert backend.dot(field, a, pb) == want
