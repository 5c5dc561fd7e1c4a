"""``AbftChecker.verify_leg`` against the per-element Freivalds loop.

Both sides of the whole-vector check are dot products through the
active backend (``vec_dot``; a coset leg first multiplies the weights
by the ``shift^j`` series).  The oracle here is the per-element loop
that reduces ``% p`` after every term: for forward, inverse and coset
legs on Goldilocks and BN254-Fr, clean or with one output element
corrupted, the checker must reach the oracle's verdict and report the
same detections.

The probe memo is process-wide, but pricing is not: two ledgers that
ask for the same shape each report their own miss, build phase and
hits, exactly as if each had built the probe itself.
"""

import pytest
from hypothesis import given, strategies as st

from repro.field import BN254_FR, GOLDILOCKS, numpy_available, use_backend
from repro.hw.cost import Phase
from repro.multigpu.abft import AbftChecker, ProbeLedger
from repro.ntt import coset_intt, coset_ntt, intt, ntt
from repro.sim import SimCluster

FIELDS = (GOLDILOCKS, BN254_FR)
LEGS = ("forward", "inverse", "coset-forward", "coset-inverse")
BACKENDS = ("python", "numpy") if numpy_available() else ("python",)


def oracle_ok(probe, inputs, outputs, inverse, shift, p):
    """The per-element loops: one ``% p`` per term."""
    x, y = (outputs, inputs) if inverse else (inputs, outputs)
    r, a = probe.r_powers, probe.weights
    lhs = 0
    for k in range(len(y)):
        lhs = (lhs + r[k] * y[k]) % p
    rhs = 0
    sp = 1
    for j in range(len(x)):
        rhs = (rhs + a[j] * sp % p * x[j]) % p
        sp = sp * shift % p
    return lhs == rhs


def leg(field, kind, values, shift):
    """``(inputs, outputs, inverse)`` of one clean transform leg."""
    if kind == "forward":
        return values, ntt(field, values), False
    if kind == "inverse":
        return values, intt(field, values), True
    if kind == "coset-forward":
        return values, coset_ntt(field, values, shift), False
    return values, coset_intt(field, values, shift), True


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", LEGS)
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@given(log_n=st.integers(1, 7), data=st.data())
def test_verdict_matches_the_per_element_loop(field, kind, backend,
                                              log_n, data):
    n = 1 << log_n
    p = field.modulus
    values = data.draw(st.lists(st.integers(0, p - 1), min_size=n,
                                max_size=n), label="values")
    shift = data.draw(st.integers(2, p - 1), label="shift") \
        if kind.startswith("coset") else None
    corrupt = data.draw(st.one_of(st.none(), st.tuples(
        st.integers(0, n - 1), st.integers(1, p - 1))), label="corrupt")
    inputs, outputs, inverse = leg(field, kind, values, shift or 1)
    if corrupt is not None:
        index, delta = corrupt
        outputs = list(outputs)
        outputs[index] = (outputs[index] + delta) % p

    checker = AbftChecker(SimCluster(field, 4))
    with use_backend(backend):
        verdict = checker.verify_leg(inputs=inputs, outputs=outputs, n=n,
                                     inverse=inverse, coset_shift=shift)
    probe, _, _ = checker.ledger.prepare(
        field, n, "inverse" if inverse else "forward")
    want = oracle_ok(probe, inputs, outputs, inverse, shift or 1, p)
    assert verdict.ok == want
    assert verdict.detections == (() if want else ("unattributed",))
    assert checker.detections == (0 if want else 1)
    if corrupt is None:
        assert verdict.ok


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_ledgers_sharing_the_memo_price_like_the_parent(field):
    n = 64
    first, second = ProbeLedger(seed=5), ProbeLedger(seed=5)
    build = Phase(name="abft-probe-build", field_muls=6 * n)
    for ledger in (first, second):
        probe, phase, hit = ledger.prepare(field, n, "forward")
        assert (phase, hit) == (build, False)
        again, phase, hit = ledger.prepare(field, n, "forward")
        assert (again, phase, hit) == (probe, None, True)
        _, phase, hit = ledger.prepare(field, n, "inverse")
        assert (phase, hit) == (build, False)
        assert ledger.stats() == {"hits": 1, "misses": 2, "resident": 2}
        assert ledger.shapes() == ((field.name, n, "forward"),
                                   (field.name, n, "inverse"))
    shared, _, _ = first.prepare(field, n, "forward")
    assert second.prepare(field, n, "forward")[0] is shared
    other, _, _ = ProbeLedger(seed=6).prepare(field, n, "forward")
    assert other.t != shared.t
