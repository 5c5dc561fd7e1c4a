"""The linear-pass table builders against per-element references.

``vec_pow_series`` (a running product), ``vec_inv`` (Montgomery's batch
inversion) and ``bit_reverse_permutation`` (list doubling) build every
table the stack makes on first use: twiddles, ABFT probes, bit
reversal.  Each must equal its element-by-element definition
(``pow``, ``field.inv``, ``bit_reverse``) on every backend, at empty,
odd and power-of-two sizes, with edge and non-canonical inputs.  The
ABFT probes are also checked against an oracle that involves no
inversion: a probe's weights are the forward NTT of its powers.
"""

import random

import pytest

from repro.errors import FieldError, NTTError
from repro.field import (
    BLS12_381_FR, BN254_FR, GOLDILOCKS, TEST_FIELD_97, available_backends,
    use_backend, vec_inv, vec_pow_series,
)
from repro.field.prime_field import PrimeField
from repro.multigpu.abft import ProbeLedger, geometric_probe
from repro.ntt import bit_reverse, bit_reverse_permutation, radix2

#: 67108821 * 2^32 + 1: the 58-bit two-adic prime (limb28x3 planes).
P58 = PrimeField(67108821 * (1 << 32) + 1, name="P58")

FIELDS = (GOLDILOCKS, BN254_FR, BLS12_381_FR, P58, TEST_FIELD_97)
BACKENDS = [name for name in ("python", "numpy")
            if available_backends()[name]]
SIZES = (0, 1, 7, 8, 9, 1 << 12)


@pytest.fixture(params=BACKENDS)
def backend(request):
    with use_backend(request.param):
        yield request.param


def edge_values(p: int) -> list[int]:
    """Non-zero edge residues, two of them non-canonical."""
    return [1, 2, p - 1, p - 2, p + 3, -2, 2 * p + 1]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
class TestPowSeries:
    @pytest.mark.parametrize("n", SIZES)
    def test_matches_pow(self, field, backend, n):
        p = field.modulus
        rng = random.Random(repr((field.name, n)))
        bases = [0, 1, p - 1, p + 3, -2, rng.randrange(p)]
        starts = [1, 0, p - 1, p + 5, -3, rng.randrange(p)]
        for base, start in zip(bases, starts):
            want = [start * pow(base, k, p) % p for k in range(n)]
            assert vec_pow_series(field, base, n, start) == want, \
                (base, start)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
class TestBatchInversion:
    @pytest.mark.parametrize("n", SIZES)
    def test_matches_field_inv(self, field, backend, n):
        p = field.modulus
        rng = random.Random(repr((field.name, n, "inv")))
        values = (edge_values(p) + [rng.randrange(1, p)
                                    for _ in range(n)])[:n]
        rng.shuffle(values)
        assert vec_inv(field, values) == [field.inv(v) for v in values]

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("zero", ["zero", "p", "-p", "2p"])
    def test_zero_names_its_index(self, field, backend, where, zero):
        p = field.modulus
        value = {"zero": 0, "p": p, "-p": -p, "2p": 2 * p}[zero]
        values = [3, p + 5, 7, -2, 11]
        index = {"first": 0, "middle": 2, "last": 4}[where]
        values[index] = value
        with pytest.raises(FieldError, match=f"at index {index}$"):
            vec_inv(field, values)

    def test_first_of_several_zeros_is_named(self, field, backend):
        p = field.modulus
        with pytest.raises(FieldError, match="at index 1$"):
            vec_inv(field, [3, p, 5, 0])


class TestBitReversal:
    @pytest.mark.parametrize("n", [0, 1, 8, 1 << 12])
    def test_matches_bit_reverse(self, n):
        bits = max(n.bit_length() - 1, 0)
        assert bit_reverse_permutation(n) == [bit_reverse(i, bits)
                                              for i in range(n)]

    @pytest.mark.parametrize("n", [7, 9])
    def test_non_power_of_two_raises(self, n):
        with pytest.raises(NTTError, match="power-of-two"):
            bit_reverse_permutation(n)


#: The ABFT probe shapes a serve fleet prepares.
SERVE_SHAPES = [(field, 1 << log_n, direction)
                for field, direction in ((BN254_FR, "inverse"),
                                         (GOLDILOCKS, "forward"))
                for log_n in (8, 10, 12)]


@pytest.mark.parametrize(
    "field,n,direction", SERVE_SHAPES,
    ids=[f"{f.name}-{n}-{d}" for f, n, d in SERVE_SHAPES])
def test_probe_weights_are_the_forward_ntt_of_its_powers(
        field, n, direction, backend):
    """sum_k t^k w^(jk) = (t^n - 1) / (t w^j - 1): no inversion needed."""
    probe, _, _ = ProbeLedger().prepare(field, n, direction)
    powers = list(probe.r_powers)
    assert powers == vec_pow_series(field, probe.t, n)
    assert list(probe.weights) == radix2.ntt(field, powers)
    # The unmemoized build agrees under the active backend too.
    w = field.root_of_unity(n)
    assert geometric_probe(field, probe.t, w, n) == (
        powers, list(probe.weights))
