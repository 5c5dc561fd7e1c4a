"""Tests for the Goldilocks lane kernels and Goldilocks transforms on the
numpy backend (which runs them)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import NTTError
from repro.field import (
    GOLDILOCKS, GOLDILOCKS_P, NumPyBackend, gl_add, gl_mul, gl_neg, gl_sub,
    use_backend,
)
from repro.field.packed import packed_ntt
from repro.ntt import intt, ntt

P = GOLDILOCKS_P

#: The values most likely to break carry/reduction logic.
EDGE_VALUES = [0, 1, 2, (1 << 32) - 2, (1 << 32) - 1, 1 << 32,
               (1 << 32) + 1, (1 << 63) - 1, 1 << 63, P - 2, P - 1]


def lanes(values):
    """Canonical values as the ``uint64`` lanes the kernels take."""
    return np.array(values, dtype=np.uint64)


def numpy_ops():
    """The numpy backend's Goldilocks lane ops (its ``gl_*`` kernels)."""
    return NumPyBackend().lane_ops(GOLDILOCKS)


class TestPacking:
    def test_roundtrip(self):
        arr = numpy_ops().pack(EDGE_VALUES)
        assert arr.dtype == np.uint64
        assert arr.tolist() == EDGE_VALUES


class TestArithmetic:
    def _pairs(self):
        return [(a, b) for a in EDGE_VALUES for b in EDGE_VALUES]

    def test_add_edge_matrix(self):
        pairs = self._pairs()
        a = lanes([x for x, _ in pairs])
        b = lanes([y for _, y in pairs])
        assert [int(v) for v in gl_add(a, b)] == \
            [(x + y) % P for x, y in pairs]

    def test_sub_edge_matrix(self):
        pairs = self._pairs()
        a = lanes([x for x, _ in pairs])
        b = lanes([y for _, y in pairs])
        assert [int(v) for v in gl_sub(a, b)] == \
            [(x - y) % P for x, y in pairs]

    def test_mul_edge_matrix(self):
        pairs = self._pairs()
        a = lanes([x for x, _ in pairs])
        b = lanes([y for _, y in pairs])
        assert [int(v) for v in gl_mul(a, b)] == \
            [x * y % P for x, y in pairs]

    def test_random_against_reference(self, rng):
        xs = GOLDILOCKS.random_vector(500, rng)
        ys = GOLDILOCKS.random_vector(500, rng)
        a, b = lanes(xs), lanes(ys)
        assert [int(v) for v in gl_mul(a, b)] == \
            [x * y % P for x, y in zip(xs, ys)]

    def test_neg(self):
        arr = lanes(EDGE_VALUES)
        assert [int(v) for v in gl_neg(arr)] == [(-v) % P for v in
                                                 EDGE_VALUES]

    def test_scale(self):
        arr = lanes(EDGE_VALUES)
        s = P - 3
        assert [int(v) for v in numpy_ops().scale(arr, s)] == \
            [v * s % P for v in EDGE_VALUES]


class TestVectorizedNTT:
    """``radix2.ntt``/``intt`` on the numpy backend against ``python``."""

    @pytest.mark.parametrize("n", [1, 2, 4, 16, 256, 1024])
    def test_matches_scalar_path(self, n, rng):
        x = GOLDILOCKS.random_vector(n, rng)
        with use_backend("python"):
            want = ntt(GOLDILOCKS, x)
        with use_backend("numpy"):
            assert ntt(GOLDILOCKS, x) == want

    @pytest.mark.parametrize("n", [2, 64, 512])
    def test_roundtrip(self, n, rng):
        x = GOLDILOCKS.random_vector(n, rng)
        with use_backend("numpy"):
            assert intt(GOLDILOCKS, ntt(GOLDILOCKS, x)) == x

    def test_interchangeable_with_scalar_inverse(self, rng):
        x = GOLDILOCKS.random_vector(64, rng)
        with use_backend("numpy"):
            spectrum = ntt(GOLDILOCKS, x)
        with use_backend("python"):
            assert intt(GOLDILOCKS, spectrum) == x

    def test_explicit_root(self, rng):
        n = 64
        w = GOLDILOCKS.root_of_unity(n)
        x = GOLDILOCKS.random_vector(n, rng)
        with use_backend("python"):
            want = ntt(GOLDILOCKS, x)
        with use_backend("numpy"):
            assert ntt(GOLDILOCKS, x, root=w) == want
            assert intt(GOLDILOCKS, ntt(GOLDILOCKS, x, root=w),
                        root=w) == x

    def test_accepts_ndarray(self, rng):
        ops = numpy_ops()
        x = ops.pack(GOLDILOCKS.random_vector(32, rng))
        out = packed_ntt(ops, x)
        assert isinstance(out, np.ndarray)

    def test_size_validation(self):
        with use_backend("numpy"):
            with pytest.raises(NTTError, match="power of two"):
                ntt(GOLDILOCKS, [1, 2, 3])
            with pytest.raises(NTTError, match="power of two"):
                intt(GOLDILOCKS, [1, 2, 3])
        with pytest.raises(NTTError, match="power of two"):
            packed_ntt(numpy_ops(), lanes([1, 2, 3]))

    def test_input_not_mutated(self, rng):
        ops = numpy_ops()
        x = ops.pack(GOLDILOCKS.random_vector(16, rng))
        before = x.copy()
        packed_ntt(ops, x)
        assert (x == before).all()


@given(st.lists(st.integers(min_value=0, max_value=P - 1),
                min_size=3, max_size=3),
       st.lists(st.integers(min_value=0, max_value=P - 1),
                min_size=3, max_size=3))
def test_mul_property(xs, ys):
    got = [int(v) for v in gl_mul(lanes(xs), lanes(ys))]
    assert got == [x * y % P for x, y in zip(xs, ys)]
