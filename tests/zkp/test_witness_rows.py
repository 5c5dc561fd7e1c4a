"""Differential fuzz: compiled (packed) R1CS rows against the list rows.

``QAP.witness_polynomials`` evaluates A·w, B·w and C·w on the packed
path through :class:`repro.zkp.r1cs.CompiledR1CS`: slot-major gathers
and coefficient tables on limb planes (the big fields) or uint64 lanes
(which have no lazy slot sum and multiply with plain ``mul``/``add``).
The list evaluator ``QAP.witness_rows`` is the reference; every packed
row must equal it bit for bit, over circuits with short rows, unit
slots, long rows that spill into the tail, rows denser than the
lazy-sum cap, and coefficients or witness entries outside ``[0, p)``.
"""

import dataclasses
import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import CircuitError
from repro.field import (
    BABYBEAR, BLS12_381_FR, BN254_FR, GOLDILOCKS, numpy_available,
    use_backend,
)
from repro.field.limbgen import generate_schedule
from repro.field.packed import (
    gather_dot, pack_coefficients, pack_stats, pack_values, packed_disabled,
    packed_ops, unpack_values,
)
from repro.zkp import (
    QAP, R1CS, inner_product, mimc_chain_circuit, mimc_preimage_circuit,
    random_circuit, square_chain,
)

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="packed rows need the numpy backend")
np = pytest.importorskip("numpy")

#: (field, backend): the big fields on the lazy limb-plane kernel, the
#: uint64 fields on lanes without the lazy slot-sum hook.
CASES = ((BN254_FR, "multilimb"), (BLS12_381_FR, "multilimb"),
         (GOLDILOCKS, "numpy"), (BABYBEAR, "numpy"))
CASE_IDS = [f"{field.name}-{backend}" for field, backend in CASES]

#: The smallest lazy-sum cap of the big fields (BLS12-381-Fr's 35).
MIN_CAP = min(generate_schedule(field.modulus).lazy_sum_terms
              for field in (BN254_FR, BLS12_381_FR))


def packed_rows(qap, witness, backend):
    """The compiled rows of ``qap`` for ``witness``, unpacked to lists."""
    with use_backend(backend):
        ops = packed_ops(qap.field, qap.domain.size)
        assert ops is not None, "packed path not available (vacuous test)"
        rows = qap.compiled(ops).rows(ops, witness)
        return tuple(unpack_values(ops, row) for row in rows)


def assert_rows_match(r1cs, witness, backend):
    qap = QAP(r1cs)
    want = qap.witness_rows(witness)
    got = packed_rows(qap, witness, backend)
    assert got == want, f"packed rows diverged ({r1cs.field.name}, {backend})"


def assert_pipeline_matches(r1cs, witness, backend):
    """The whole packed quotient against the list path, one witness pack."""
    qap = QAP(r1cs)
    with use_backend(backend):
        pack_stats.reset()
        packed = qap.witness_polynomials(witness).all()
        snap = pack_stats.snapshot()
        with packed_disabled():
            unpacked = qap.witness_polynomials(witness).all()
    assert snap["packs"] == 1 and snap["hot_unpacks"] == 0, snap
    assert packed == unpacked


@pytest.mark.parametrize("field,backend", CASES, ids=CASE_IDS)
@given(fan_in=st.integers(1, 6), log_n=st.integers(5, 6),
       seed=st.integers(0, 2**16))
def test_random_circuit_rows(field, backend, fan_in, log_n, seed):
    r1cs, witness = random_circuit(field, (1 << log_n) - 1, seed=seed,
                                   fan_in=fan_in)
    assert_rows_match(r1cs, witness, backend)


@pytest.mark.parametrize("field,backend", CASES, ids=CASE_IDS)
def test_structured_circuit_rows(field, backend):
    circuits = [
        square_chain(field, 40),
        mimc_preimage_circuit(field, 12345, rounds=20),
        mimc_chain_circuit(field, [3, 1, 4, 1, 5], rounds=4),
    ]
    for r1cs, witness in circuits:
        assert_rows_match(r1cs, witness, backend)
    assert_pipeline_matches(*circuits[1], backend)


@pytest.mark.parametrize("field,backend", CASES, ids=CASE_IDS)
@given(length=st.integers(2 * MIN_CAP + 1, 4 * MIN_CAP))
def test_long_row_spills_to_the_tail(field, backend, length):
    """inner_product's summation row is longer than the slot width."""
    r1cs, witness = inner_product(field, length, seed=length)
    assert_rows_match(r1cs, witness, backend)


@pytest.mark.parametrize("field", (BN254_FR, BLS12_381_FR),
                         ids=lambda f: f.name)
def test_deep_tail_reduces_periodically(field):
    """A spill deep enough that its pieces and fold pass the lazy cap."""
    cap = generate_schedule(field.modulus).lazy_sum_terms
    r1cs, witness = inner_product(field, cap * cap + cap + 2, seed=5)
    assert_rows_match(r1cs, witness, "multilimb")


def satisfied_system(field, seed, constraints=40, terms=(0, 4), inputs=3):
    """A satisfied R1CS whose coefficients and witness entries stray.

    Coefficients are negative or at least p, combinations may be empty
    (``terms`` bounds their distinct wires), and witness entries are
    congruent to the right value but negative or at least p.
    """
    rng = random.Random(seed)
    p = field.modulus

    def stray(value):
        return value % p + p * rng.randint(-3, 3)

    r1cs = R1CS(field, num_public=1)
    witness = [1 + p * rng.randint(0, 2), stray(rng.randrange(p))]
    for _ in range(inputs):
        r1cs.new_wire()
        witness.append(stray(rng.randrange(p)))
    for _ in range(constraints):
        combos = []
        for _ in range(2):
            wires = rng.sample(range(r1cs.num_wires), rng.randint(*terms))
            combos.append({wire: stray(rng.randrange(p)) for wire in wires})
        a_val, b_val = (sum(c * witness[w] for w, c in lc.items()) % p
                        for lc in combos)
        out = r1cs.new_wire()
        coeff = rng.randrange(1, p)
        witness.append(stray(a_val * b_val * field.inv(coeff)))
        r1cs.add_constraint(combos[0], combos[1], {out: stray(coeff)})
    assert r1cs.is_satisfied(witness)
    return r1cs, witness


@pytest.mark.parametrize("field,backend", CASES, ids=CASE_IDS)
@given(seed=st.integers(0, 2**16))
def test_stray_coefficients_and_witness_entries(field, backend, seed):
    r1cs, witness = satisfied_system(field, seed)
    assert_rows_match(r1cs, witness, backend)


@pytest.mark.parametrize("field,backend", CASES, ids=CASE_IDS)
def test_rows_denser_than_the_lazy_cap(field, backend):
    """Every row has more Montgomery products than BLS12-381-Fr's cap."""
    width = 2 * MIN_CAP + 1
    r1cs, witness = satisfied_system(field, 3, terms=(width, width),
                                     inputs=2 * width)
    assert_rows_match(r1cs, witness, backend)


@pytest.mark.parametrize("field,backend", CASES, ids=CASE_IDS)
def test_stray_system_pipeline(field, backend):
    assert_pipeline_matches(*satisfied_system(field, 99), backend)


@pytest.mark.parametrize("field,backend", CASES, ids=CASE_IDS)
def test_empty_matrices(field, backend):
    """B and C empty in every row: one all-padding unit slot each."""
    r1cs = R1CS(field)
    wires = [r1cs.new_wire() for _ in range(3)]
    for k in range(40):
        r1cs.add_constraint({wires[k % 3]: k - 20}, {}, {})
    witness = [1, 5, -6, field.modulus + 7]
    assert_rows_match(r1cs, witness, backend)
    assert_pipeline_matches(r1cs, witness, backend)


@pytest.mark.parametrize("field,backend", CASES, ids=CASE_IDS)
def test_unsatisfied_witness_raises_on_every_path(field, backend):
    r1cs, witness = random_circuit(field, 63, seed=4)
    witness = list(witness)
    witness[-1] += 1  # breaks exactly the last constraint
    qap = QAP(r1cs)
    message = "witness does not satisfy the R1CS"
    with use_backend(backend):
        with pytest.raises(CircuitError, match=message):
            qap.witness_polynomials(witness)
        with packed_disabled(), pytest.raises(CircuitError, match=message):
            qap.witness_polynomials(witness)
    with use_backend("python"), pytest.raises(CircuitError, match=message):
        qap.witness_polynomials(witness)


@pytest.mark.parametrize("field", (BN254_FR, BLS12_381_FR),
                         ids=lambda f: f.name)
@given(slots=st.integers(1, 3 * MIN_CAP), seed=st.integers(0, 2**16))
def test_lazy_slot_sum_matches_plain_lane_ops(field, slots, seed):
    """The multilimb hook against mul_mont + add, past the lazy cap."""
    rng = random.Random(seed)
    p = field.modulus
    lanes = 32
    values = [rng.randrange(p) for _ in range(50)] + [0]
    with use_backend("multilimb"):
        ops = packed_ops(field, lanes)
        assert ops.gather_dot is not None
        plain = dataclasses.replace(ops, gather_dot=None)
        x = pack_values(ops, values)
        terms = []
        for _ in range(slots):
            idx = [rng.randrange(len(values)) for _ in range(lanes)]
            unit = rng.random() < 0.3
            coeffs = [1] * lanes if unit else [
                rng.choice((1, p - 1, rng.randrange(p))) for _ in range(lanes)]
            terms.append((np.array(idx), coeffs, None if unit else
                          pack_coefficients(ops, coeffs)))
        packed_slots = [(idx, table) for idx, _, table in terms]
        lazy = unpack_values(ops, gather_dot(ops, x, packed_slots))
        composed = unpack_values(ops, gather_dot(plain, x, packed_slots))
    want = [sum(coeffs[lane] * values[idx[lane]]
                for idx, coeffs, _ in terms) % p for lane in range(lanes)]
    assert lazy == composed == want


@pytest.mark.parametrize("field", (BN254_FR, BLS12_381_FR),
                         ids=lambda f: f.name)
def test_lazy_slot_sum_of_many_maximal_terms(field):
    """Over a hundred caps' worth of p - 1: exact only if sums reduce."""
    p = field.modulus
    count = 3 << 12
    with use_backend("multilimb"):
        ops = packed_ops(field, 32)
        x = pack_values(ops, [p - 1])
        slots = [(np.zeros(32, dtype=np.intp), None)] * count
        got = unpack_values(ops, gather_dot(ops, x, slots))
    assert got == [count * (p - 1) % p] * 32


class TestCompiledMemo:
    def test_backend_switches_between_calls(self):
        r1cs, witness = random_circuit(BN254_FR, 63, seed=2)
        qap = QAP(r1cs)
        want = QAP(r1cs).witness_polynomials(witness).all()
        for backend in ("multilimb", "numpy", "multilimb"):
            with use_backend(backend):
                assert qap.witness_polynomials(witness).all() == want

    def test_key_follows_the_backend(self):
        # ``multilimb`` names the numpy backend, so only a switch
        # between python and numpy changes the key.
        r1cs, witness = random_circuit(GOLDILOCKS, 63, seed=2)
        qap = QAP(r1cs)
        with use_backend("numpy"):
            ops = packed_ops(GOLDILOCKS, 64)
        compiled = []
        for backend in ("numpy", "python", "multilimb"):
            with use_backend(backend):
                compiled.append(qap.compiled(ops))
                assert qap.compiled(ops) is compiled[-1]
        assert compiled[0] is not compiled[1]
        assert compiled[1] is not compiled[2]
        with use_backend("numpy"):
            assert qap.compiled(ops) is compiled[2]
        assert packed_rows(qap, witness, "numpy") == qap.witness_rows(witness)

    @pytest.mark.parametrize("backend", ("multilimb", "python"))
    def test_appended_constraint_recompiles(self, backend):
        r1cs, witness = square_chain(BN254_FR, 40)  # 41 constraints, n=64
        qap = QAP(r1cs)
        with use_backend(backend):
            qap.witness_polynomials(witness)
            z = r1cs.constrain_mul(2, 2)
            witness = witness + [witness[2] ** 2 % BN254_FR.modulus]
            got = qap.witness_polynomials(witness)
        assert got.all() == QAP(r1cs).witness_polynomials(witness).all()
        assert z == len(witness) - 1
        assert packed_rows(qap, witness, "multilimb") == \
            qap.witness_rows(witness)

    @pytest.mark.parametrize("backend", ("multilimb", "python"))
    def test_appended_constraint_past_the_domain_raises(self, backend):
        r1cs, witness = square_chain(BN254_FR, 63)  # 64 constraints, n=64
        qap = QAP(r1cs)
        with use_backend(backend):
            qap.witness_polynomials(witness)
            r1cs.constrain_mul(2, 2)
            witness = witness + [witness[2] ** 2 % BN254_FR.modulus]
            with pytest.raises(CircuitError, match="cannot host"):
                qap.witness_polynomials(witness)

