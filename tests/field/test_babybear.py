"""BabyBear on the numpy backend's lane kernels and the shared SIMD driver.

The numpy backend runs BabyBear (a 31-bit prime) on its direct kernel:
one ``uint64`` product and one ``%`` per lane.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import NTTError
from repro.field import BABYBEAR, NumPyBackend, use_backend
from repro.ntt import intt, ntt

P = BABYBEAR.modulus

EDGE_VALUES = [0, 1, 2, (1 << 27) - 1, 1 << 27, 15 << 26, P - 2, P - 1]

#: The numpy backend's BabyBear lane ops.
OPS = NumPyBackend().lane_ops(BABYBEAR)


def ints(arr):
    return [int(v) for v in arr]


class TestPacking:
    def test_roundtrip(self):
        arr = OPS.pack(EDGE_VALUES)
        assert arr.dtype == np.uint64
        assert ints(arr) == EDGE_VALUES


class TestArithmetic:
    def _pairs(self):
        return [(a, b) for a in EDGE_VALUES for b in EDGE_VALUES]

    def test_edge_matrix(self):
        pairs = self._pairs()
        a = OPS.pack([x for x, _ in pairs])
        b = OPS.pack([y for _, y in pairs])
        assert ints(OPS.add(a, b)) == [(x + y) % P for x, y in pairs]
        assert ints(OPS.sub(a, b)) == [(x - y) % P for x, y in pairs]
        assert ints(OPS.mul(a, b)) == [x * y % P for x, y in pairs]

    def test_random_against_reference(self, rng):
        xs = BABYBEAR.random_vector(300, rng)
        ys = BABYBEAR.random_vector(300, rng)
        a, b = OPS.pack(xs), OPS.pack(ys)
        assert ints(OPS.mul(a, b)) == [x * y % P for x, y in zip(xs, ys)]

    def test_neg_scale(self):
        arr = OPS.pack(EDGE_VALUES)
        assert ints(NumPyBackend().neg(BABYBEAR, arr)) == \
            [(-v) % P for v in EDGE_VALUES]
        assert ints(OPS.scale(arr, P - 1)) == \
            [v * (P - 1) % P for v in EDGE_VALUES]


class TestVectorizedNTT:
    """``radix2.ntt``/``intt`` on the numpy backend against ``python``."""

    @pytest.mark.parametrize("n", [1, 2, 16, 256, 1024])
    def test_matches_scalar_path(self, n, rng):
        x = BABYBEAR.random_vector(n, rng)
        with use_backend("python"):
            want = ntt(BABYBEAR, x)
        with use_backend("numpy"):
            assert ntt(BABYBEAR, x) == want

    @pytest.mark.parametrize("n", [2, 64, 512])
    def test_roundtrip(self, n, rng):
        x = BABYBEAR.random_vector(n, rng)
        with use_backend("numpy"):
            assert intt(BABYBEAR, ntt(BABYBEAR, x)) == x

    def test_interchangeable_with_scalar_inverse(self, rng):
        x = BABYBEAR.random_vector(64, rng)
        with use_backend("numpy"):
            spectrum = ntt(BABYBEAR, x)
        with use_backend("python"):
            assert intt(BABYBEAR, spectrum) == x

    def test_size_validation(self):
        with use_backend("numpy"):
            with pytest.raises(NTTError, match="power of two"):
                ntt(BABYBEAR, [1, 2, 3])

    def test_two_adicity_respected(self):
        """BabyBear caps at 2^27; the root lookup enforces it."""
        from repro.errors import FieldError as FE
        with pytest.raises(FE, match="two-adicity"):
            BABYBEAR.root_of_unity(1 << 28)


class TestSharedDriver:
    def test_goldilocks_and_babybear_share_schedule(self, rng):
        """Both fields' lane ops run through repro.field.simd; spot-check
        that the shared driver agrees with the scalar transform."""
        from repro.field import GOLDILOCKS
        from repro.field.simd import vectorized_ntt

        for field in (BABYBEAR, GOLDILOCKS):
            ops = NumPyBackend().lane_ops(field)
            x = field.random_vector(64, rng)
            with use_backend("python"):
                want = ntt(field, x)
            assert ints(vectorized_ntt(ops, ops.pack(x))) == want


@given(st.lists(st.integers(min_value=0, max_value=P - 1),
                min_size=4, max_size=4),
       st.lists(st.integers(min_value=0, max_value=P - 1),
                min_size=4, max_size=4))
def test_mul_property(xs, ys):
    got = ints(OPS.mul(OPS.pack(xs), OPS.pack(ys)))
    assert got == [x * y % P for x, y in zip(xs, ys)]
