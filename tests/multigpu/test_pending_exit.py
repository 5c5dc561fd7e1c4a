"""Pending INTT exits and Montgomery mirrors of packed polynomials.

A packed :class:`~repro.multigpu.DistributedPolynomial` returned by
``to_coefficients()`` keeps its inverse transform's lazy last-stage
array and the exit montmul it still owes
(:class:`~repro.field.packed.PendingExit`); a coset forward folds its
``g^i`` pre-scale into that montmul, and any other read runs the exit
first.  A polynomial used as the right operand of ``*`` keeps its
Montgomery-form mirror, so later products with it are one ``mul_mont``.
These tests pin:

* a hypothesis differential: after ``to_coefficients()``, every
  consumer (values, shards, ``to_evaluations`` with and without a
  coset, ``+``, ``-``, ``*``, repeated ``*``, checkpoint/restore) gives
  what the same sequence gives under
  :func:`~repro.field.packed.packed_disabled`, with the same events and
  device counters;
* under an ABFT checker, with and without a compute bit flip, the
  values still match the list currency, and the exit is resolved at
  once, as it is under a compute-fault injector;
* ``tests/data/packed_polynomial_events.json`` regenerates byte for
  byte;
* mirrors: two fields or two lane formats never share one, a mirror is
  read-only, it stands in for the canonical array until a read, and a
  product with a kept mirror is one montmul.
"""

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PartitionError
from repro.field import (
    BLS12_381_FR, BN254_FR, GOLDILOCKS, numpy_available, use_backend,
)
from repro.field.backend import get_backend
from repro.field.simd import folds_exit
from repro.field.packed import (
    PendingExit, host_list, pack_values, packed_disabled, packed_ops,
)
from repro.multigpu import DistributedPolynomial, UniNTTEngine
from repro.multigpu.abft import AbftChecker
from repro.sim import FaultInjector, FaultPlan, SimCluster
from tests.multigpu import test_resident_packed_polynomial as resident

pytestmark = pytest.mark.skipif(
    not numpy_available(),
    reason="the packed currency needs the numpy/multilimb backend")

N = 64
CONSUMERS = ("values", "shards", "forward", "forward-coset",
             "forward-other-coset", "add", "sub", "mul", "mul-again",
             "checkpoint")


@pytest.fixture(autouse=True)
def _multilimb_backend():
    with use_backend("multilimb"):
        yield


class _Run:
    """One currency's run on its own cluster (optionally watched)."""

    def __init__(self, field, gpus: int, packed: bool, specs=(),
                 checker: bool = False):
        self.field = field
        self.packed = packed
        injector = None
        if specs:
            injector = FaultInjector(FaultPlan.from_specs(list(specs),
                                                          seed=0xFA11),
                                     field.modulus)
        self.cluster = SimCluster(field, gpus, injector=injector)
        self.engine = UniNTTEngine(self.cluster)
        if checker:
            self.engine.abft_checker = AbftChecker(self.cluster)

    def run(self, values, other, coset: bool, consumers) -> list:
        if self.packed:
            return self._run(values, other, coset, consumers)
        with packed_disabled():
            return self._run(values, other, coset, consumers)

    def _stage(self, values, coset_shift):
        data = values
        if self.packed:
            data = pack_values(packed_ops(self.field, len(values)), values)
        return DistributedPolynomial.from_evaluations(
            self.engine, data, coset_shift=coset_shift)

    def _run(self, values, other, coset, consumers) -> list:
        g = self.field.multiplicative_generator
        shift = g if coset else None
        poly = self._stage(values, shift).to_coefficients()
        partner = self._stage(other, shift).to_coefficients()
        if self.packed and not self._watched() and folds_exit(
                packed_ops(self.field, len(values))):
            assert isinstance(poly._resident, PendingExit)
        observed = []
        for kind in consumers:
            try:
                observed.append((kind,) + self._consume(kind, poly, partner))
            except PartitionError as error:
                observed.append((kind, "error", str(error)))
        return observed

    def _watched(self) -> bool:
        return (self.cluster.injector is not None
                or getattr(self.engine, "abft_checker", None) is not None)

    def _consume(self, kind, poly, partner) -> tuple:
        g = self.field.multiplicative_generator
        if kind == "values":
            return (poly.values(),)
        if kind == "shards":
            if self.packed:
                return ([host_list(self.field, s) for s in poly.shards],)
            return ([list(s) for s in poly.shards],)
        if kind == "forward":
            return _observe(poly.to_evaluations())
        if kind == "forward-coset":
            return _observe(poly.to_evaluations(coset_shift=g))
        if kind == "forward-other-coset":
            return _observe(poly.to_evaluations(
                coset_shift=g * g % self.field.modulus))
        if kind == "add":
            return _observe(poly + partner)
        if kind == "sub":
            return _observe(partner - poly)
        if kind in ("mul", "mul-again"):
            left = poly.to_evaluations(coset_shift=g)
            right = partner.to_evaluations(coset_shift=g)
            product = left * right
            if kind == "mul-again":
                product = (product * right).to_coefficients()
            return _observe(product)
        snap = poly.checkpoint()
        restored = DistributedPolynomial.restore(self.engine, snap)
        return (snap.form, snap.coset_shift, list(snap.values)) + \
            _observe(restored)

    def events(self) -> list:
        return [(e.kind, e.level, e.max_bytes_per_gpu, e.total_bytes,
                 e.field_muls, e.detail) for e in self.cluster.trace.events]

    def counters(self) -> list:
        return [gpu.counters.snapshot() for gpu in self.cluster.gpus]


def _observe(poly) -> tuple:
    return (poly.form, poly.coset_shift, poly.values())


@settings(deadline=None)
@given(field=st.sampled_from((BN254_FR, GOLDILOCKS)),
       gpus=st.sampled_from((2, 4, 8)), coset=st.booleans(),
       consumers=st.lists(st.sampled_from(CONSUMERS), min_size=1,
                          max_size=6),
       seed=st.integers(0, 2**16))
def test_every_consumer_matches_the_list_currency(field, gpus, coset,
                                                  consumers, seed):
    rng = random.Random(seed)
    values = field.random_vector(N, rng)
    other = field.random_vector(N, rng)
    packed = _Run(field, gpus, packed=True)
    listed = _Run(field, gpus, packed=False)
    assert packed.run(values, other, coset, consumers) == \
        listed.run(values, other, coset, consumers)
    assert packed.events() == listed.events()
    assert packed.counters() == listed.counters()


@pytest.mark.parametrize("specs", [(), ("compute-bitflip@0:gpu=1,delta=9",),
                                   ("compute-bitflip@2:gpu=0,delta=5",)],
                         ids=["clean", "bitflip-first", "bitflip-later"])
@pytest.mark.parametrize("field", (BN254_FR, GOLDILOCKS),
                         ids=lambda f: f.name)
def test_abft_checked_runs_resolve_at_once_and_stay_correct(field, specs):
    rng = random.Random(7)
    values = field.random_vector(N, rng)
    other = field.random_vector(N, rng)
    packed = _Run(field, 4, packed=True, specs=specs, checker=True)
    listed = _Run(field, 4, packed=False, checker=True)
    consumers = ("forward-coset", "mul", "values", "checkpoint")
    assert packed.run(values, other, True, consumers) == \
        listed.run(values, other, True, consumers)
    poly = packed._stage(values, None).to_coefficients()
    assert not isinstance(poly._resident, PendingExit)


def test_a_compute_fault_injector_resolves_the_exit_at_once():
    field = BN254_FR
    run = _Run(field, 4, packed=True,
               specs=("compute-bitflip@0:gpu=1,delta=9",))
    poly = run._stage(field.random_vector(N, random.Random(1)), None)
    assert not isinstance(poly.to_coefficients()._resident, PendingExit)


def test_pending_exit_resolves_once():
    field = BN254_FR
    run = _Run(field, 4, packed=True)
    poly = run._stage(field.random_vector(N, random.Random(2)), None) \
        .to_coefficients()
    assert isinstance(poly._resident, PendingExit)
    first = poly.values()
    resolved = poly._resident
    assert not isinstance(resolved, PendingExit)
    assert poly.values() == first and poly._resident is resolved


def test_the_recorded_fault_golden_regenerates_byte_for_byte():
    data = json.dumps(resident._record(), indent=None,
                      separators=(",", ":")) + "\n"
    assert data.encode() == resident.GOLDEN_PATH.read_bytes()


# -- Montgomery mirrors ---------------------------------------------------------

def _evaluations(field, seed: int, engine=None):
    engine = engine or UniNTTEngine(SimCluster(field, 4))
    values = field.random_vector(N, random.Random(seed))
    return DistributedPolynomial.from_evaluations(
        engine, pack_values(packed_ops(field, N), values)), values


def test_mirrors_are_keyed_by_modulus_and_lane_format():
    poly, values = _evaluations(BN254_FR, 1)
    ops = packed_ops(BN254_FR, N)
    made = []

    def spy(arr):
        made.append(arr)
        return ops.to_table(arr)

    plain = poly._mirror(ops)
    assert poly._mirror(ops) is plain
    # BLS12-381-Fr shares BN254-Fr's lane format, not its modulus.
    assert packed_ops(BLS12_381_FR, N).fmt == ops.fmt
    other_field = dataclasses.replace(ops, field=BLS12_381_FR, to_table=spy)
    other_format = dataclasses.replace(ops, fmt="limb28x10", to_table=spy)
    seen = [plain]
    for variant in (other_field, other_format, ops):
        mirror = poly._mirror(variant)
        assert all(mirror is not old for old in seen)
        assert poly._mirror(variant) is mirror
        seen.append(mirror)
    assert len(made) == 2
    assert poly.values() == values


def test_a_multiplied_polynomial_holds_only_its_mirror_until_read():
    field = BN254_FR
    engine = UniNTTEngine(SimCluster(field, 4))
    left, a = _evaluations(field, 5, engine)
    right, b = _evaluations(field, 6, engine)
    product = left * right
    assert right._resident is None  # the mirror replaced the array
    mirror = right._mont[2]
    assert right.values() == b
    (product * right).values()
    assert right._mont[2] is mirror  # kept once read, not remade
    assert right.values() == b and left.values() == a
    p = field.modulus
    assert product.values() == [x * y % p for x, y in zip(a, b)]


def test_a_handed_out_mirror_is_read_only():
    poly, _ = _evaluations(BN254_FR, 2)
    mirror = poly._mirror(packed_ops(BN254_FR, N))
    with pytest.raises(ValueError):
        mirror[...] = 0


def test_a_kept_mirror_makes_a_product_one_montmul():
    field = BN254_FR
    engine = UniNTTEngine(SimCluster(field, 4))
    left, a = _evaluations(field, 3, engine)
    right, b = _evaluations(field, 4, engine)
    kernel = get_backend()._kernel(field)
    full = []
    original = kernel.montmul_lazy

    def counting(x, y, sc):
        full.append(x.shape[-1])
        return original(x, y, sc)

    kernel.montmul_lazy = counting
    try:
        first = left * right
        calls_first = len(full)
        second = left * right
    finally:
        del kernel.montmul_lazy
    p = field.modulus
    want = [x * y % p for x, y in zip(a, b)]
    assert first.values() == second.values() == want
    assert calls_first == 2 and len(full) == 3
