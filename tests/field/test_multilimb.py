"""Multi-limb kernel: schedule codegen, CIOS kernel, and NTT core.

The limb *schedule* (width, count, Montgomery constants) is pure
stdlib data from :mod:`repro.field.limbgen`; the kernel in
:mod:`repro.field.multilimb` executes the source that module emits.
These tests pin both halves: the schedule's arithmetic identities, the
emitted source against a python-int CIOS reference (including the
worst-case inputs that probe the lazy accumulator's uint64 headroom),
and the packed NTT core against the Python backend.
"""

import random

import pytest

from repro.errors import FieldError
from repro.field import (
    BLS12_381_FR, BN254_FR, NumPyBackend, PythonBackend,
    describe_schedule, generate_schedule, numpy_available, use_backend,
)
from repro.field.backend import LANE_MIN_SIZE
from repro.field.limbgen import emit_montmul_source, pick_limb_bits
from repro.field.prime_field import PrimeField

BIG_FIELDS = (BN254_FR, BLS12_381_FR)
#: 33..64-bit primes on two or three limb planes: limb30x2, limb29x3,
#: and two two-adic primes whose transforms outgrow limb30x2's radix.
#: On limb29x3 the 55-bit one would break the Barrett exit's bound,
#: so it takes limb27x3; the 58-bit one takes limb28x3.
MID_FIELDS = (
    PrimeField(43 * (1 << 32) + 1, name="Mont38"),
    PrimeField(27 * (1 << 56) + 1, name="Mont61"),
    PrimeField(34359738351 * (1 << 20) + 1, name="P55"),
    PrimeField(67108821 * (1 << 32) + 1, name="P58"),
)


# -- schedule derivation (stdlib-only; no numpy needed) -----------------------

@pytest.mark.parametrize("field", BIG_FIELDS, ids=lambda f: f.name)
class TestSchedule:
    def test_layout_constants(self, field):
        s = generate_schedule(field.modulus)
        assert (s.limb_bits, s.limbs) == (29, 9)
        assert s.words == 5  # 64-bit words per element when serialized
        assert s.fmt == "limb29x9"

    def test_montgomery_identities(self, field):
        s = generate_schedule(field.modulus)
        p = field.modulus
        assert s.r == 1 << (s.limb_bits * s.limbs)
        assert s.r2 == s.r * s.r % p
        assert (s.n_prime * p) % s.base == s.base - 1  # n' = -p^-1
        assert sum(l << (s.limb_bits * i)
                   for i, l in enumerate(s.p_limbs)) == p

    def test_lazy_bounds(self, field):
        s = generate_schedule(field.modulus)
        # R > 4p is what the semi-lazy butterfly chain relies on, and
        # the accumulator bound must leave non-negative headroom.
        assert s.r > 4 * s.modulus
        assert s.headroom_bits >= 0
        # every benchmarked size (up to 2^16 -> 16 stages) fits the
        # (2s+1)p < R laziness budget with room to spare
        assert s.max_lazy_stages >= 16

    def test_describe_is_stable_and_readable(self, field):
        text = describe_schedule(field.modulus, field.name)
        assert "limb29x9" in text
        assert text == describe_schedule(field.modulus, field.name)


def test_pick_limb_bits_maximizes_width_within_headroom():
    # The widest limb whose 20-term lazy accumulation still fits
    # uint64 is 29 bits for a 254/255-bit modulus; 30 would need a
    # 66-bit accumulator.
    for field in BIG_FIELDS:
        assert pick_limb_bits(field.modulus) == (29, 9)


def test_mid_field_schedules():
    formats = [generate_schedule(f.modulus).fmt for f in MID_FIELDS]
    assert formats == ["limb30x2", "limb29x3", "limb27x3", "limb28x3"]


def test_schedule_requires_odd_modulus():
    with pytest.raises(ValueError, match="odd"):
        generate_schedule(1 << 64)


# -- emitted CIOS source ------------------------------------------------------

class TestEmittedSource:
    def test_source_shape(self):
        s = generate_schedule(BN254_FR.modulus)
        src = emit_montmul_source(s)
        assert src.count("def montmul_lazy") == 1
        assert src.count("np.right_shift") == s.limbs
        # exactly one zero fill: the result's top row (never
        # accumulated into, but normalized in place by callers)
        assert src.count(".fill(0)") == 1
        compile(src, "<test>", "exec")  # emitted source must parse

    def test_source_is_field_specialized(self):
        bn = emit_montmul_source(generate_schedule(BN254_FR.modulus))
        bls = emit_montmul_source(generate_schedule(BLS12_381_FR.modulus))
        assert bn != bls  # n' differs per field


# -- the compiled kernel ------------------------------------------------------

needs_numpy = pytest.mark.skipif(not numpy_available(),
                                 reason="numpy unavailable")


def _kernel(field):
    return NumPyBackend()._kernel(field)


def _int_of(kern, arr, i):
    return kern.lane_int(arr, i)


@needs_numpy
@pytest.mark.parametrize("field", BIG_FIELDS, ids=lambda f: f.name)
class TestMontmul:
    def test_matches_int_reference(self, field, rng):
        kern = _kernel(field)
        p, R = field.modulus, kern.schedule.r
        r_inv = pow(R, -1, p)
        n = 16
        a_vals = [rng.randrange(p) for _ in range(n)]
        b_vals = [rng.randrange(p) for _ in range(n)]
        a, b = kern.pack(a_vals), kern.pack(b_vals)
        sc = kern.scratch(n)
        out = kern.montmul_lazy(a, b, sc)
        for i in range(n):
            got = _int_of(kern, out, i) % p
            assert got == a_vals[i] * b_vals[i] * r_inv % p

    def test_accumulator_headroom_at_worst_case(self, field):
        """Overflow regression: all-ones limbs must stay bit-exact.

        The CIOS accumulator peaks within a few bits of 2^64; a past
        bug fed partially-normalized limbs (~2^34) back into it and
        got within 0.21 bits of silent wraparound.  Canonical-limb
        inputs with every limb at the mask (value R-1 — larger than
        any value the NTT can produce) are the adversarial cap: if the
        accumulation chain ever loses a carry, this detects it.
        """
        import numpy as np

        kern = _kernel(field)
        p, R, L = field.modulus, kern.schedule.r, kern.L
        r_inv = pow(R, -1, p)
        n = 4
        a = np.full((L, n), kern.schedule.mask, dtype=np.uint64)
        a_val = R - 1
        b_vals = [p - 1, p - 2, 1, p // 2]
        b = kern.pack(b_vals)
        out = kern.montmul_lazy(a, b, kern.scratch(n))
        for i in range(n):
            assert _int_of(kern, out, i) % p == \
                a_val * b_vals[i] * r_inv % p

    def test_scratch_view_reuse_is_safe(self, field, rng):
        """Callers may normalize the returned view in place.

        ``mul``/``pack_table`` run a carry chain directly on the
        returned scratch view, which writes its top row; the next
        montmul on the same scratch must still be exact (the emitted
        source re-zeroes exactly that row).
        """
        kern = _kernel(field)
        p, R = field.modulus, kern.schedule.r
        r_inv = pow(R, -1, p)
        n = 8
        sc = kern.scratch(n)
        for _ in range(3):
            a_vals = [rng.randrange(p) for _ in range(n)]
            b_vals = [rng.randrange(p) for _ in range(n)]
            out = kern.montmul_lazy(kern.pack(a_vals), kern.pack(b_vals), sc)
            kern.norm_seq(out)  # in-place on the view, like mul() does
            for i in range(n):
                assert _int_of(kern, out, i) % p == \
                    a_vals[i] * b_vals[i] * r_inv % p


@needs_numpy
@pytest.mark.parametrize("field", BIG_FIELDS + MID_FIELDS,
                         ids=lambda f: f.name)
class TestBarrettExit:
    def test_reduces_extremes(self, field):
        import numpy as np

        kern = _kernel(field)
        p, L = field.modulus, kern.L
        R = kern.schedule.r
        # 0, p-1 (fixed), p and 2p-1 (one subtraction), R-1 (the
        # largest canonical-limb value the exit can ever see)
        cases = [0, p - 1, p, 2 * p - 1, 3 * p + 12345, R - 1]
        arr = np.empty((L, len(cases)), dtype=np.uint64)
        for i, v in enumerate(cases):
            for j in range(L):
                arr[j, i] = (v >> (kern.k * j)) & kern.schedule.mask
        out = kern.reduce_canonical(arr)
        for i, v in enumerate(cases):
            assert _int_of(kern, out, i) == v % p

    def test_work_buffer_variant_is_identical(self, field, rng):
        import numpy as np

        kern = _kernel(field)
        p, L = field.modulus, kern.L
        vals = [rng.randrange(2 * p) for _ in range(8)]
        arr = np.empty((L, 8), dtype=np.uint64)
        for i, v in enumerate(vals):
            for j in range(L):
                arr[j, i] = (v >> (kern.k * j)) & kern.schedule.mask
        work = np.empty_like(arr)
        a = kern.reduce_canonical(arr.copy())
        b = kern.reduce_canonical(arr.copy(), work=work)
        assert (a == b).all()


@needs_numpy
@pytest.mark.parametrize("field", BIG_FIELDS, ids=lambda f: f.name)
class TestPackUnpack:
    def test_round_trip_edges(self, field, rng):
        backend = NumPyBackend()
        p = field.modulus
        vals = [0, 1, p - 1, p // 2, (1 << 232) - 1,
                rng.randrange(p), rng.randrange(p)]
        packed = backend.pack(field, vals)
        assert backend.unpack(field, packed) == vals

    def test_values_in_p_to_r_are_reduced(self, field):
        backend = NumPyBackend()
        kern = _kernel(field)
        p, R = field.modulus, kern.schedule.r
        vals = [p, 2 * p - 1, R - 1, p + 12345]
        packed = kern.pack(vals)
        assert packed is not None
        assert kern.unpack(packed) == [v % p for v in vals]

    def test_unpackable_values_return_none(self, field):
        kern = _kernel(field)
        R = kern.schedule.r
        assert kern.pack([-1]) is None          # negative: no to_bytes
        assert kern.pack([1 << 320]) is None    # beyond the word budget
        assert kern.pack([R]) is None           # would truncate limbs
        assert kern.pack([R + 5, 1]) is None

    def test_backend_level_fallback_still_correct(self, field):
        # The FieldBackend wrapper retries unpackable inputs (here:
        # negatives, which int.to_bytes refuses) through the
        # canonicalized path; op results must match PythonBackend,
        # whose semantics allow arbitrary integers.
        backend, py = NumPyBackend(), PythonBackend()
        vals = [-1, -field.modulus, field.modulus + 7]
        ones = [1, 1, 1]
        got = backend.unpack(field, backend.mul(
            field, backend.pack(field, vals), backend.pack(field, ones)))
        want = py.unpack(field, py.mul(
            field, py.pack(field, vals), py.pack(field, ones)))
        assert got == want


@needs_numpy
@pytest.mark.parametrize("field", MID_FIELDS, ids=lambda f: f.name)
def test_word_pack_reduces_and_refuses_like_uint64_lanes(field):
    # Below 2^64 a value packs through one uint64 word: anything in
    # [0, 2^64) is reduced mod p, anything else is refused.
    kern = _kernel(field)
    p = field.modulus
    vals = [0, 1, p - 1, p, 2 * p - 1, (1 << 64) - 1]
    assert kern.unpack(kern.pack(vals)) == [v % p for v in vals]
    assert kern.pack([]).shape == (kern.L, 0)
    assert kern.pack([-1]) is None
    assert kern.pack([1 << 64, 1]) is None


@needs_numpy
@pytest.mark.parametrize("field", BIG_FIELDS, ids=lambda f: f.name)
class TestNTTCore:
    def _ops_and_table(self, field, n):
        from repro.ntt.twiddle import TwiddleCache

        backend = NumPyBackend()
        ops = backend.lane_ops(field)
        cache = TwiddleCache()
        root = field.root_of_unity(n)
        table = cache.packed_powers(field, root, n // 2, ops.pack_table,
                                    fmt=ops.fmt)
        return ops, table

    def test_n2_direct(self, field, rng):
        from repro.ntt import dft

        ops, table = self._ops_and_table(field, 2)
        vals = field.random_vector(2, rng)
        got = ops.unpack(ops.ntt_core(ops.pack(vals), table))
        assert got == dft(field, vals)

    def test_matches_python_backend(self, field, rng):
        from repro.ntt.radix2 import ntt

        for n in (4, 32, 128):
            vals = field.random_vector(n, rng)
            with use_backend("python"):
                want = ntt(field, vals)
            ops, table = self._ops_and_table(field, n)
            got = ops.unpack(ops.ntt_core(ops.pack(vals), table))
            assert got == want, f"n={n}"

    def test_input_not_mutated(self, field, rng):
        ops, table = self._ops_and_table(field, 16)
        packed = ops.pack(field.random_vector(16, rng))
        before = packed.copy()
        ops.ntt_core(packed, table)
        assert (packed == before).all()

    def test_lane_ops_surface(self, field):
        ops = NumPyBackend().lane_ops(field)
        assert ops.fmt == "limb29x9"
        assert LANE_MIN_SIZE == 32
        assert ops.unpack is not None and ops.pack_table is not None

    def test_stage_table_cache_is_bounded(self, field, rng):
        kern = _kernel(field)
        ops, table = self._ops_and_table(field, 16)
        packed = ops.pack(field.random_vector(16, rng))
        ops.ntt_core(packed, table)
        entries = len(kern._stage_tables)
        ops.ntt_core(packed, table)  # same table+size: no new entry
        assert len(kern._stage_tables) == entries
        for _ in range(6):  # distinct tables: cache stays bounded
            ops2, t2 = self._ops_and_table(field, 16)
            kern.ntt_core(packed, t2)
        assert len(kern._stage_tables) <= 4

    def test_stage_table_bytes_do_not_grow_with_batch(self, field, rng):
        from repro.ntt.radix2 import ntt

        kern = _kernel(field)
        ops, table = self._ops_and_table(field, 64)

        def resident_bytes():
            return sum(tab.nbytes for tabs in kern._stage_tables.values()
                       for tab in tabs[1:] if tab is not None)

        sizes = []
        for batch in (1, 2, 8, 32):
            vals = field.random_vector(64 * batch, rng)
            out = kern.ntt_core(ops.pack(vals), table, batch)
            # Size-major batch layout: vector g is lanes g, g+B, ...
            got = ops.unpack(out)
            assert got[0::batch] == ntt(field, vals[0::batch])
            sizes.append(resident_bytes())
        assert len(kern._stage_tables) == 1
        # Only the (L, m) slices, m = 2 .. n/2, stay resident: L(n-2)
        # words, whatever the batch.
        assert sizes == [kern.L * 62 * 8] * 4

    def test_depth_guard_raises_clearly(self, field):
        import dataclasses

        import numpy as np

        kern = _kernel(field)
        # The real bound needs ~2^60 lanes to trip; shrink it so the
        # guard itself (checked before any table work) is exercised.
        kern.schedule = dataclasses.replace(kern.schedule,
                                            max_lazy_stages=2)
        fake = np.zeros((kern.L, 8), dtype=np.uint64)
        with pytest.raises(FieldError, match="lazy-carry bound"):
            kern.ntt_core(fake, None)


@needs_numpy
def test_engine_transform_under_multilimb(rng):
    """A distributed engine is bit-exact with multilimb active."""
    from repro.multigpu import DistributedVector, UniNTTEngine
    from repro.ntt import ntt
    from repro.sim import SimCluster

    field = BN254_FR
    n = 64
    values = field.random_vector(n, rng)
    with use_backend("python"):
        want = ntt(field, values)
    with use_backend("multilimb"):
        cluster = SimCluster(field, 4)
        engine = UniNTTEngine(cluster)
        vec = DistributedVector.from_values(cluster, values,
                                            engine.input_layout(n))
        assert engine.forward(vec).to_values() == want


@needs_numpy
def test_small_fields_behave_like_numpy_backend(rng):
    """Below 64 bits the numpy backend keeps its 1-D uint64 lanes;
    only moduli of 64 bits and more take the limb planes."""
    from repro.field import GOLDILOCKS

    backend = NumPyBackend()
    a = GOLDILOCKS.random_vector(16, rng)
    b = GOLDILOCKS.random_vector(16, rng)
    packed = backend.pack(GOLDILOCKS, a)
    assert packed.ndim == 1 and str(packed.dtype) == "uint64"
    assert backend.lane_ops(GOLDILOCKS).ntt_core is None
    assert backend.pack(BN254_FR, a).ndim == 2
    py = PythonBackend()
    assert backend.unpack(GOLDILOCKS, backend.mul(
        GOLDILOCKS, packed, backend.pack(GOLDILOCKS, b))) == \
        py.mul(GOLDILOCKS, a, b)


@needs_numpy
@pytest.mark.parametrize("field", BIG_FIELDS + MID_FIELDS[:1],
                         ids=lambda f: f.name)
class TestScratch:
    """One CIOS buffer set, sized for the largest lane count seen."""

    def test_one_buffer_set_serves_every_lane_count(self, field):
        import numpy as np

        kern = _kernel(field)
        big = kern.scratch(64)
        small = kern.scratch(16)
        for name, view in small.items():
            assert view.shape[-1] == 16 and view.flags.c_contiguous
            assert np.shares_memory(view, big[name])
        assert kern.scratch(64) is big  # views are cached per count
        grown = kern.scratch(128)
        assert not np.shares_memory(grown["t"], big["t"])
        assert np.shares_memory(kern.scratch(16)["t"], grown["t"])
        assert np.shares_memory(kern.scratch(64)["t"], grown["t"])

    def test_interleaved_lane_counts_stay_exact(self, field, rng):
        """Kernels at different lane counts share the buffers in turn:
        none may hold a scratch view across another's call."""
        from repro.field.simd import vectorized_intt
        from repro.ntt import intt
        from repro.ntt.twiddle import TwiddleCache

        backend = NumPyBackend()
        kern = backend._kernel(field)
        ops = backend.lane_ops(field)
        p = field.modulus
        cache = TwiddleCache()
        for n in (64, 8, 256, 16, 64):
            a = field.random_vector(n, rng)
            b = field.random_vector(n, rng)
            pa, pb = kern.pack(a), kern.pack(b)
            assert kern.unpack(kern.mul(pa, pb)) == [
                x * y % p for x, y in zip(a, b)]
            assert kern.unpack(kern.mul_scalar(pa, 7)) == [
                x * 7 % p for x in a]
            assert kern.unpack(kern.fused_quotient(pa, pb, pa, 3)) == [
                (x * y - x) * 3 % p for x, y in zip(a, b)]
            with use_backend("python"):
                want = intt(field, a)
            assert kern.unpack(vectorized_intt(ops, pa, cache)) == want
