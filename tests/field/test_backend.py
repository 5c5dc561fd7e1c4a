"""Cross-backend equivalence tests.

Every operation of :class:`repro.field.NumPyBackend` must agree
bit-for-bit with :class:`repro.field.PythonBackend` — the reference
semantics — on every preset field plus six extra 33..64-bit primes,
which run on the two- and three-limb planes of the multi-limb kernel.
The randomized vectors mix in the edge values (0, 1, p-1, 2^32-1,
2^32) that stress carry/borrow paths.
"""

import random

import pytest

from repro.errors import FieldError
from repro.field import (
    ALL_FIELDS, BACKEND_ENV_VAR, NumPyBackend, PythonBackend,
    available_backends, generate_schedule, get_backend, numpy_available,
    set_backend, use_backend,
)
from repro.field.prime_field import PrimeField
from repro.field.vector import vec_inv, vec_pow_series

pytestmark = pytest.mark.skipif(not numpy_available(),
                                reason="numpy backend unavailable")

#: 43 * 2^32 + 1 — 38 bits, two 30-bit limb planes (limb30x2).
MONT38 = PrimeField(43 * (1 << 32) + 1, generator=3, name="Mont38")
#: 27 * 2^56 + 1 — 61 bits, three 29-bit limb planes (limb29x3).
MONT61 = PrimeField(27 * (1 << 56) + 1, generator=5, name="Mont61")
#: The smallest prime above 2^32: the first modulus past the direct kernel.
P33 = PrimeField((1 << 32) + 15, name="P33")
#: The largest primes below 2^63 and 2^64 (limb29x3).
P63 = PrimeField((1 << 63) - 25, name="P63")
P64 = PrimeField((1 << 64) - 59, name="P64")
#: 67108821 * 2^32 + 1 — 58 bits and 2^32-two-adic: two 30-bit limbs
#: leave R/p < 4, too little for its transforms' lazy butterfly chain,
#: so it takes three 28-bit limb planes (limb28x3).
P58 = PrimeField(67108821 * (1 << 32) + 1, name="P58")

FIELDS = list(ALL_FIELDS) + [MONT38, MONT61, P33, P58, P63, P64]


def _vectors(field, rng, size=64):
    p = field.modulus
    edge = [0, 1, p - 1, p // 2, min(p - 1, (1 << 32) - 1),
            min(p - 1, 1 << 32)]
    a = edge + [rng.randrange(p) for _ in range(size)]
    b = list(reversed(edge)) + [rng.randrange(p) for _ in range(size)]
    return a, b


@pytest.fixture
def backends():
    return PythonBackend(), NumPyBackend()


def _under_both(build):
    """``build()`` under the python and then the numpy backend."""
    out = []
    for name in ("python", "numpy"):
        with use_backend(name):
            out.append(build())
    return out


def test_numpy_backend_has_lane_ops_for_every_field():
    backend = NumPyBackend()
    for field in FIELDS:
        assert backend.lane_ops(field) is not None, field.name


def test_limb_schedules_fit_every_transform_size():
    # The limb NTT core's values reach (2s+1)p after s butterfly
    # stages, so every schedule must hold the field's deepest
    # transform (2^two_adicity points) below R.
    for field in FIELDS:
        schedule = generate_schedule(field.modulus)
        assert schedule.max_lazy_stages >= field.two_adicity, field.name
    assert generate_schedule(P58.modulus).fmt == "limb28x3"


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
class TestBackendEquivalence:
    def test_elementwise(self, field, backends, rng):
        py, np_ = backends
        a, b = _vectors(field, rng)
        for op in ("add", "sub", "mul"):
            ref = py.unpack(field, getattr(py, op)(
                field, py.pack(field, a), py.pack(field, b)))
            got = np_.unpack(field, getattr(np_, op)(
                field, np_.pack(field, a), np_.pack(field, b)))
            assert got == ref, f"{op} mismatch over {field.name}"

    def test_neg_scale(self, field, backends, rng):
        py, np_ = backends
        a, _ = _vectors(field, rng)
        s = rng.randrange(field.modulus)
        assert (np_.unpack(field, np_.neg(field, np_.pack(field, a)))
                == py.unpack(field, py.neg(field, py.pack(field, a))))
        assert (np_.unpack(field, np_.scale(field, np_.pack(field, a), s))
                == py.unpack(field, py.scale(field, py.pack(field, a), s)))

    def test_pow_series(self, field, rng):
        p = field.modulus
        base = rng.randrange(1, p)
        for n in (0, 1, 7, 64, 100):
            py, np_ = _under_both(lambda: vec_pow_series(field, base, n))
            assert py == np_ == [pow(base, k, p) for k in range(n)]

    def test_inv(self, field, rng):
        p = field.modulus
        a = [rng.randrange(1, p) for _ in range(50)] + [1]
        py, np_ = _under_both(lambda: vec_inv(field, a))
        assert py == np_
        assert all(x * y % p == 1 for x, y in zip(a, py))

    def test_inv_zero_raises_with_index(self, field):
        for name in ("python", "numpy"):
            with use_backend(name), pytest.raises(FieldError,
                                                  match="index 2"):
                vec_inv(field, [1, 1, 0, 1])

    def test_reductions(self, field, backends, rng):
        py, np_ = backends
        a, b = _vectors(field, rng)
        assert np_.dot(field, a, b) == py.dot(field, a, b)
        assert np_.sum(field, a) == py.sum(field, a)
        assert isinstance(np_.dot(field, a, b), int)
        assert isinstance(np_.sum(field, a), int)

    def test_non_canonical_inputs_reduced(self, field, backends):
        # Python semantics accept any ints and reduce mod p; the numpy
        # pack path must match (including negatives, which overflow
        # uint64 conversion).
        py, np_ = backends
        p = field.modulus
        a = [-1, -p, p, p + 1, 2 * p + 5, 0]
        b = [3, 5, 7, 11, 13, 17]
        ref = py.unpack(field, py.mul(field, py.pack(field, a),
                                      py.pack(field, b)))
        got = np_.unpack(field, np_.mul(field, np_.pack(field, a),
                                        np_.pack(field, b)))
        assert got == ref

    def test_length_mismatch_raises(self, field, backends):
        _, np_ = backends
        with pytest.raises(ValueError):
            np_.add(field, np_.pack(field, [1, 2]), np_.pack(field, [1]))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_ntt_round_trip_matches_python(field, rng):
    from repro.ntt import intt, ntt

    n = min(64, 1 << field.two_adicity)
    values = field.random_vector(n, rng)
    with use_backend("python"):
        ref = ntt(field, values)
    with use_backend("numpy"):
        assert ntt(field, values) == ref
        assert intt(field, ref) == values


def test_deep_ntt_on_a_58_bit_prime_matches_python(rng):
    from repro.ntt import intt, ntt

    values = P58.random_vector(1 << 13, rng)
    with use_backend("python"):
        ref = ntt(P58, values)
    with use_backend("numpy"):
        assert ntt(P58, values) == ref
        assert intt(P58, ref) == values


@pytest.mark.parametrize("engine", ["radix2", "radix4", "stockham",
                                    "fourstep", "recursive", "bluestein"])
def test_engines_under_numpy_backend(engine, rng):
    from repro.field import GOLDILOCKS
    from repro.ntt import ntt
    from repro.ntt.bluestein import bluestein_ntt
    from repro.ntt.fourstep import four_step_ntt
    from repro.ntt.plan import balanced_plan
    from repro.ntt.radix4 import ntt_radix4
    from repro.ntt.recursive import plan_ntt
    from repro.ntt.stockham import ntt_stockham

    runner = {
        "radix2": ntt,
        "radix4": ntt_radix4,
        "stockham": ntt_stockham,
        "fourstep": four_step_ntt,
        "recursive": lambda f, v: plan_ntt(f, balanced_plan(len(v)), v),
        "bluestein": bluestein_ntt,
    }[engine]
    n = 128
    values = GOLDILOCKS.random_vector(n, rng)
    with use_backend("python"):
        ref = runner(GOLDILOCKS, values)
    with use_backend("numpy"):
        assert runner(GOLDILOCKS, values) == ref


class TestSelection:
    def test_available_backends(self):
        avail = available_backends()
        assert avail["python"] is True
        assert avail["numpy"] is True

    def test_set_and_restore(self):
        original = get_backend().name
        try:
            set_backend("python")
            assert get_backend().name == "python"
            numpy_backend = set_backend("numpy")
            assert get_backend().name == "numpy"
            assert set_backend("multilimb") is numpy_backend
            assert get_backend() is numpy_backend
        finally:
            set_backend(original)

    def test_auto_resolves_to_numpy(self):
        original = get_backend().name
        try:
            set_backend("auto")
            assert get_backend().name == "numpy"
        finally:
            set_backend(original)

    def test_unknown_backend_raises(self):
        with pytest.raises(FieldError, match="unknown backend"):
            set_backend("cuda")

    def test_context_manager_restores(self):
        before = get_backend().name
        with use_backend("python"):
            assert get_backend().name == "python"
        assert get_backend().name == before

    def test_context_manager_restores_on_error(self):
        before = get_backend().name
        with pytest.raises(RuntimeError):
            with use_backend("python"):
                raise RuntimeError("boom")
        assert get_backend().name == before

    def test_env_var_selects_backend(self):
        import subprocess
        import sys

        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.field import get_backend; "
             "print(get_backend().name)"],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": "src", BACKEND_ENV_VAR: "python"},
            cwd=".").stdout.strip()
        assert out == "python"


def test_big_fields_fall_back_to_python_semantics(rng):
    # BN254/BLS12-381 exceed uint64; the numpy backend runs them on
    # limb planes and must give the Python backend's answers.
    from repro.field import BLS12_381_FR

    np_ = NumPyBackend()
    py = PythonBackend()
    a = [rng.randrange(BLS12_381_FR.modulus) for _ in range(8)]
    b = [rng.randrange(BLS12_381_FR.modulus) for _ in range(8)]
    assert (np_.unpack(BLS12_381_FR, np_.mul(
        BLS12_381_FR, np_.pack(BLS12_381_FR, a), np_.pack(BLS12_381_FR, b)))
        == py.unpack(BLS12_381_FR, py.mul(
            BLS12_381_FR, py.pack(BLS12_381_FR, a),
            py.pack(BLS12_381_FR, b))))


def test_random_cross_backend_fuzz(rng):
    # One broader randomized sweep: random sizes, random ops, every
    # preset field, both backends must agree exactly.
    from repro.field.vector import vec_add, vec_mul, vec_sub

    for field in FIELDS:
        for _ in range(5):
            n = rng.randrange(1, 40)
            a = field.random_vector(n, rng)
            b = field.random_vector(n, rng)
            for op in (vec_add, vec_sub, vec_mul):
                with use_backend("python"):
                    ref = op(field, a, b)
                with use_backend("numpy"):
                    assert op(field, a, b) == ref


class TestMultiLimbSelection:
    """``multilimb`` is another name for the ``numpy`` backend."""

    def test_multilimb_is_listed(self):
        assert available_backends().get("multilimb") is True

    def test_set_and_restore(self):
        original = get_backend().name
        try:
            backend = set_backend("multilimb")
            assert isinstance(backend, NumPyBackend)
            assert backend.name == "numpy"
            assert get_backend() is backend
        finally:
            set_backend(original)
        assert get_backend().name == original

    def test_auto_still_resolves_to_numpy(self):
        original = get_backend().name
        try:
            assert set_backend("auto") is set_backend("multilimb")
            assert get_backend().name == "numpy"
        finally:
            set_backend(original)

    def test_env_var_selects_multilimb(self):
        import subprocess
        import sys

        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.field import get_backend, set_backend; "
             "b = get_backend(); "
             "print(b.name, b is set_backend('numpy'))"],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": "src", BACKEND_ENV_VAR: "multilimb"},
            cwd=".").stdout.strip()
        assert out == "numpy True"


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
class TestMultiLimbEquivalence:
    """NumPyBackend agrees with PythonBackend on EVERY preset.

    Fields below 2^32 and Goldilocks run on uint64 lanes, every other
    field on limb planes — either way the answers must be the reference
    answers, on the same edge-heavy vectors as the equivalence matrix
    above.
    """

    def test_elementwise(self, field, rng):
        py, ml = PythonBackend(), NumPyBackend()
        a, b = _vectors(field, rng)
        for op in ("add", "sub", "mul"):
            ref = py.unpack(field, getattr(py, op)(
                field, py.pack(field, a), py.pack(field, b)))
            got = ml.unpack(field, getattr(ml, op)(
                field, ml.pack(field, a), ml.pack(field, b)))
            assert got == ref, f"{op} mismatch over {field.name}"

    def test_scale_pow_series_inv(self, field, rng):
        py, ml = PythonBackend(), NumPyBackend()
        a, _ = _vectors(field, rng)
        nonzero = [v or 1 for v in a]
        s = rng.randrange(1, field.modulus)
        assert ml.unpack(field, ml.scale(field, ml.pack(field, a), s)) == \
            py.unpack(field, py.scale(field, py.pack(field, a), s))
        series = _under_both(lambda: vec_pow_series(field, s, 17))
        assert series[0] == series[1]
        inverses = _under_both(lambda: vec_inv(field, nonzero))
        assert inverses[0] == inverses[1]

    def test_reductions(self, field, rng):
        py, ml = PythonBackend(), NumPyBackend()
        a, b = _vectors(field, rng)
        assert ml.sum(field, ml.pack(field, a)) == \
            py.sum(field, py.pack(field, a))
        assert ml.dot(field, ml.pack(field, a), ml.pack(field, b)) == \
            py.dot(field, py.pack(field, a), py.pack(field, b))
