"""Differential fuzz harness: packed prover pipelines vs the list path.

The packed regime keeps big-field vectors on limb planes between
transform legs (``docs/FIELDS.md`` "packed pipelines"); the list
regime — forced with :func:`repro.field.packed.packed_disabled` —
round-trips every leg through ``list[int]``.  Both run the identical
algebra, so any byte of divergence in a proof, commitment, opening, or
intermediate polynomial is a bug by definition.  Each whole-pipeline
leg is fuzzed here: the Groth16 QAP quotient pipeline, full Groth16
proofs, KZG commit/open, the STARK LDE/prove path, distributed
polynomial transforms, and the serve scheduler's batches (limb planes
against the pure-Python backend).

Where cheap, the packed result is also pinned against the pure-Python
backend (the limbless oracle), and the :data:`pack_stats` counters
assert the packed runs truly stayed resident (zero hot-leg unpacks).

Runs under the seeded "repro"/"ci" hypothesis profiles from
``tests/conftest.py`` so CI fuzzing is deterministic.
"""

import pytest
from hypothesis import assume, given, strategies as st

from repro.field import (
    BLS12_381_FR, BN254_FR, GOLDILOCKS, numpy_available, use_backend,
)
from repro.field.packed import pack_stats, packed_disabled, packed_ops
from repro.multigpu import DistributedPolynomial, UniNTTEngine
from repro.serve import ProofRequest, ProofServer
from repro.sim import SimCluster
from repro.zkp import (
    Groth16Prover, Groth16Trapdoor, KzgScheme, Polynomial, QAP,
    SquareAffineAir, StarkProver, StarkVerifier, groth16_self_check,
    groth16_setup, random_circuit, square_chain, trusted_setup,
)

pytestmark = pytest.mark.skipif(
    not numpy_available(),
    reason="packed pipelines need the numpy/multilimb backend")

#: Big fields whose packed path runs on the multi-limb backend.
BIG_FIELDS = (BN254_FR, BLS12_381_FR)

TRAPDOOR = Groth16Trapdoor(alpha=11, beta=13, gamma=17, delta=19,
                           tau=0xFEEDFACE)


def _packed_vs_list(run):
    """Run ``run()`` packed and list-wise; return (packed, unpacked).

    Asserts the packed run engaged the resident path without a single
    hot-leg unpack — a silently-lapsed gate would make the comparison
    vacuous.
    """
    pack_stats.reset()
    packed = run()
    snap = pack_stats.snapshot()
    assert snap["packs"] > 0, "packed path never engaged (vacuous test)"
    assert snap["hot_unpacks"] == 0, f"unpacked on a hot leg: {snap}"
    with packed_disabled():
        unpacked = run()
    return packed, unpacked


# -- Groth16 QAP quotient pipeline (the 7-NTT leg) ----------------------------

@given(field=st.sampled_from(BIG_FIELDS),
       log_n=st.integers(5, 6),
       seed=st.integers(0, 2**16))
def test_qap_pipeline_packed_matches_list(field, log_n, seed):
    n = 1 << log_n
    r1cs, witness = random_circuit(field, n - 1, seed=seed)
    qap = QAP(r1cs)
    assert qap.domain.size == n
    with use_backend("multilimb"):
        assert packed_ops(field, n) is not None
        packed, unpacked = _packed_vs_list(
            lambda: qap.witness_polynomials(witness))
    assert packed.all() == unpacked.all(), (
        f"QAP pipeline diverged packed vs list ({field.name}, n={n})")
    assert qap.check_divisibility(packed)


@pytest.mark.parametrize("field", BIG_FIELDS, ids=lambda f: f.name)
def test_qap_pipeline_packed_matches_pure_python(field):
    """The packed multilimb pipeline against the limbless oracle."""
    r1cs, witness = square_chain(field, steps=31)
    qap = QAP(r1cs)
    with use_backend("python"):
        want = qap.witness_polynomials(witness).all()
    with use_backend("multilimb"):
        pack_stats.reset()
        got = qap.witness_polynomials(witness).all()
        assert pack_stats.snapshot()["hot_unpacks"] == 0
    assert got == want, f"packed pipeline diverged from python ({field.name})"


# -- Full Groth16 proofs ------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 2, 3])
def test_groth16_proof_packed_matches_list(seed):
    r1cs, witness = random_circuit(BN254_FR, 31, seed=seed)
    qap = QAP(r1cs)
    pk, vk = groth16_setup(qap, TRAPDOOR)
    prover = Groth16Prover(qap, pk)
    with use_backend("multilimb"):
        packed, unpacked = _packed_vs_list(
            lambda: prover.prove(witness, r=seed, s=seed + 1))
    assert (packed.a, packed.b, packed.c) == \
        (unpacked.a, unpacked.b, unpacked.c), (
        "Groth16 proof diverged packed vs list")
    assert groth16_self_check(qap, vk, packed, witness, TRAPDOOR,
                              r=seed, s=seed + 1)


# -- KZG commit + open --------------------------------------------------------

def _kzg_case(degree, seed):
    import random

    coeffs = [random.Random(seed + i).randrange(BN254_FR.modulus)
              for i in range(degree + 1)]
    return (Polynomial(BN254_FR, coeffs),
            KzgScheme(trusted_setup(degree + 1, 0xFACEFEED)))


def _on_opening_coset(degree, point):
    """Whether ``point`` lies on the coset ``g * H`` the packed opening
    evaluates on (``g`` the multiplicative generator, ``|H|`` the
    padded size); there the opening divides synthetically by design."""
    field = BN254_FR
    p = field.modulus
    n = 1 << degree.bit_length()
    return pow(point * field.inv(field.multiplicative_generator) % p,
               n, p) == 1


@given(degree=st.integers(33, 64),
       seed=st.integers(0, 2**16),
       point=st.integers(0, 2**64))
def test_kzg_open_packed_matches_list(degree, seed, point):
    # On the coset the packed opening takes no packed leg, which would
    # make the engagement guard of _packed_vs_list fail for a correct
    # run; test_kzg_open_on_coset_matches_list covers those points.
    assume(not _on_opening_coset(degree, point))
    poly, scheme = _kzg_case(degree, seed)
    with use_backend("multilimb"):
        packed, unpacked = _packed_vs_list(
            lambda: (scheme.commit(poly), scheme.open(poly, point)))
    assert packed == unpacked, "KZG commit/open diverged packed vs list"
    commitment, opening = packed
    assert scheme.check_with_trapdoor(commitment, opening, 0xFACEFEED)


@pytest.mark.parametrize("k", [0, 1, 63])
def test_kzg_open_on_coset_matches_list(k):
    """A point on the opening coset (``g * w^k``) falls back to synthetic
    division under the packed backend too, with the same opening."""
    degree = 33
    field = BN254_FR
    point = field.multiplicative_generator \
        * pow(field.root_of_unity(64), k, field.modulus) % field.modulus
    assert _on_opening_coset(degree, point)
    poly, scheme = _kzg_case(degree, 0)
    with use_backend("multilimb"):
        packed = scheme.open(poly, point)
        with packed_disabled():
            unpacked = scheme.open(poly, point)
    assert packed == unpacked
    assert scheme.check_with_trapdoor(scheme.commit(poly), packed,
                                      0xFACEFEED)


# -- STARK prove (LDE leg packed) ---------------------------------------------

@pytest.mark.parametrize("field,length", [(BN254_FR, 32), (GOLDILOCKS, 64)],
                         ids=["BN254-Fr", "Goldilocks"])
def test_stark_proof_packed_matches_list(field, length):
    air = SquareAffineAir(field=field, length=length)
    prover = StarkProver(air, blowup=4, query_count=8, final_degree=8)
    trace = air.trace_from_seed(5)
    backend = "multilimb" if field.modulus.bit_length() > 64 else "numpy"
    with use_backend(backend):
        packed, unpacked = _packed_vs_list(lambda: prover.prove(trace))
    assert packed == unpacked, "STARK proof diverged packed vs list"
    verifier = StarkVerifier(air, blowup=4, query_count=8, final_degree=8)
    assert verifier.verify(packed)


# -- Distributed polynomial transforms ----------------------------------------

@given(field=st.sampled_from(BIG_FIELDS),
       seed=st.integers(0, 2**16),
       coset=st.booleans(),
       gpus=st.sampled_from([2, 4]))
def test_distributed_polynomial_packed_matches_list(field, seed, coset,
                                                    gpus):
    """forward -> pointwise square -> inverse, packed shards vs lists.

    Staging from a ``list`` deliberately keeps the list pipeline, so
    the packed leg enters through :func:`pack_values` — under
    :func:`packed_disabled` the same staging falls back to lists and
    the two runs become the differential pair.
    """
    import random

    from repro.field.packed import pack_values

    n = max(32, gpus * gpus)
    values = [random.Random(seed + i).randrange(field.modulus)
              for i in range(n)]
    shift = field.multiplicative_generator if coset else 1

    def run():
        cluster = SimCluster(field, gpus)
        engine = UniNTTEngine(cluster)
        ops = packed_ops(field, n)
        data = pack_values(ops, values) if ops is not None else values
        poly = DistributedPolynomial.from_coefficients(engine, data)
        evals = poly.to_evaluations(coset_shift=shift)
        squared = evals * evals
        return squared.to_coefficients().values()

    with use_backend("multilimb"):
        packed, unpacked = _packed_vs_list(run)
    assert packed == unpacked, (
        f"distributed pipeline diverged ({field.name}, gpus={gpus}, "
        f"coset={coset})")


# -- Serve scheduler: lane batches --------------------------------------------

@given(log_size=st.integers(5, 6),
       direction=st.sampled_from(["forward", "inverse"]),
       seed=st.integers(0, 2**16),
       requests=st.integers(1, 3))
def test_serve_packed_requests_match_unpacked(log_size, direction, seed,
                                              requests):
    """Serve batches on limb planes (``multilimb``) return the outputs
    and dispatch records of the list route (``python``)."""
    workload = [
        ProofRequest(request_id=i, field_name=BN254_FR.name,
                     log_size=log_size, direction=direction,
                     data_seed=seed + i)
        for i in range(requests)
    ]
    reports = []
    for backend in ("python", "multilimb"):
        with use_backend(backend):
            reports.append(ProofServer().serve(workload))
    plain_report, packed_report = reports
    assert packed_report.completed == requests
    packed_out = [list(out) for res in packed_report.results
                  for out in res.outputs]
    plain_out = [list(out) for res in plain_report.results
                 for out in res.outputs]
    assert packed_out == plain_out, "packed serve output diverged"
    assert packed_report.dispatches == plain_report.dispatches
