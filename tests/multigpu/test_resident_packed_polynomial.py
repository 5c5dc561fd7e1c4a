"""Differential fuzz: the resident packed polynomial vs the list currency.

The packed currency of :class:`~repro.multigpu.DistributedPolynomial`
keeps each polynomial as one natural-order backend array and derives
its per-GPU ``shards`` on demand; the list currency keeps real
``list[int]`` shards and runs the engine's materialized program.  Both
describe the same polynomial and the same bill, so any divergence in
values, forms, shards, errors, per-GPU counters or trace events is a
bug.

* :func:`test_sequences_match_the_list_currency` runs hypothesis
  sequences of staging, forward and inverse transforms (with and
  without a coset), pointwise add/sub/mul, ``checkpoint``/``restore``
  and ``.shards`` access on BN254-Fr (limb planes) and Goldilocks
  (``uint64`` lanes) for G in {2, 4, 8}; the list run is the same
  sequence under :func:`~repro.field.packed.packed_disabled`.
* :func:`test_fault_paths_match_the_recorded_golden` covers the
  ``compute-bitflip`` replay onto the resident output and the
  ``abft_checker`` re-execution loop.  Those have no list twin (the
  list path corrupts intermediate steps, the packed path replays onto
  its output), so their values and (kind, level, bytes, muls, detail)
  event tuples are pinned against ``tests/data/packed_polynomial_events.json``,
  recorded from the shard-list packed currency this one replaced;
  the no-fault cases in that file pin the plain sequences the same way.
  ``python -m tests.multigpu.test_resident_packed_polynomial`` prints
  the file's content for the running tree.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.analysis.tracecheck import check_trace
from repro.errors import PartitionError, ResilienceError
from repro.field import BN254_FR, GOLDILOCKS, numpy_available, use_backend
from repro.field.packed import (
    host_list, pack_values, packed_disabled, packed_ops,
)
from repro.multigpu import DistributedPolynomial, UniNTTEngine
from repro.multigpu.abft import AbftChecker
from repro.sim import FaultInjector, FaultPlan, SimCluster

pytestmark = pytest.mark.skipif(
    not numpy_available(),
    reason="the packed currency needs the numpy/multilimb backend")

GOLDEN_PATH = Path(__file__).parent.parent / "data" / \
    "packed_polynomial_events.json"
FIELDS = {field.name: field for field in (BN254_FR, GOLDILOCKS)}
N = 64
KINDS = ("stage-coeff", "stage-eval", "stage-coset", "forward",
         "forward-coset", "inverse", "add", "sub", "mul", "checkpoint",
         "shards")
#: Pool slots a sequence may address (results past it replace a slot).
POOL = 4


class _Run:
    """One currency's run of a step sequence on its own cluster."""

    def __init__(self, field, gpus: int, packed: bool, specs=(),
                 checker: bool = False, seed: int = 0xFA11):
        self.field = field
        self.packed = packed
        injector = None
        if specs:
            injector = FaultInjector(FaultPlan.from_specs(list(specs),
                                                          seed=seed),
                                     field.modulus)
        self.cluster = SimCluster(field, gpus, injector=injector)
        self.engine = UniNTTEngine(self.cluster)
        if checker:
            self.engine.abft_checker = AbftChecker(self.cluster)
        self.pool: list = []
        self.kept = 0

    def _stage(self, values, form: str, coset_shift=None):
        data = values
        if self.packed:
            data = pack_values(packed_ops(self.field, len(values)), values)
        if form == "coefficient":
            return DistributedPolynomial.from_coefficients(self.engine, data)
        return DistributedPolynomial.from_evaluations(
            self.engine, data, coset_shift=coset_shift)

    def _keep(self, poly) -> None:
        if self.packed:
            assert poly.packed, "the packed run lapsed to lists"
        if len(self.pool) < POOL:
            self.pool.append(poly)
        else:
            self.pool[self.kept % POOL] = poly
        self.kept += 1

    def _shards(self, poly) -> list:
        shards = poly.shards
        if self.packed:
            return [host_list(self.field, shard) for shard in shards]
        return [list(shard) for shard in shards]

    def step(self, kind: str, i: int, j: int, values) -> tuple:
        """Apply one step; return what it observably produced."""
        if self.packed:
            return self._step(kind, i, j, values)
        with packed_disabled():
            return self._step(kind, i, j, values)

    def _step(self, kind, i, j, values) -> tuple:
        shift = self.field.multiplicative_generator
        if not self.pool or kind.startswith("stage-"):
            form = "evaluation" if kind in ("stage-eval", "stage-coset") \
                else "coefficient"
            poly = self._stage(values, form,
                               shift if kind == "stage-coset" else None)
            self._keep(poly)
            return ("staged",) + self._observe(poly)
        a = self.pool[i % len(self.pool)]
        b = self.pool[j % len(self.pool)]
        try:
            if kind == "forward":
                out = a.to_evaluations()
            elif kind == "forward-coset":
                out = a.to_evaluations(coset_shift=shift)
            elif kind == "inverse":
                out = a.to_coefficients()
            elif kind == "add":
                out = a + b
            elif kind == "sub":
                out = a - b
            elif kind == "mul":
                out = a * b
            elif kind == "checkpoint":
                snap = a.checkpoint()
                out = DistributedPolynomial.restore(self.engine, snap)
                assert list(snap.values) == out.values()
            else:
                return ("shards", self._shards(a))
        except PartitionError as error:
            return ("error", str(error))
        self._keep(out)
        return (kind,) + self._observe(out)

    @staticmethod
    def _observe(poly) -> tuple:
        return (poly.form, poly.coset_shift, poly.n, poly.values())

    def events(self) -> list:
        return [(e.kind, e.level, e.max_bytes_per_gpu, e.total_bytes,
                 e.field_muls, e.detail) for e in self.cluster.trace.events]

    def counters(self) -> list:
        return [gpu.counters.snapshot() for gpu in self.cluster.gpus]


@pytest.fixture(autouse=True)
def _multilimb_backend():
    with use_backend("multilimb"):
        yield


STEPS = st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, POOL - 1),
                           st.integers(0, POOL - 1)),
                 min_size=1, max_size=10)


@given(field=st.sampled_from(tuple(FIELDS.values())),
       gpus=st.sampled_from((2, 4, 8)), steps=STEPS,
       seed=st.integers(0, 2**16))
def test_sequences_match_the_list_currency(field, gpus, steps, seed):
    packed = _Run(field, gpus, packed=True)
    listed = _Run(field, gpus, packed=False)
    rng = random.Random(seed)
    for number, (kind, i, j) in enumerate(steps):
        values = field.random_vector(N, rng)
        got = packed.step(kind, i, j, values)
        want = listed.step(kind, i, j, values)
        assert got == want, f"step {number} ({kind}, {i}, {j}) diverged"
    assert packed.counters() == listed.counters()
    assert packed.events() == listed.events()


def test_derived_shards_are_fresh_copies(rng):
    """Writing a derived shard never changes the resident polynomial."""
    run = _Run(BN254_FR, 4, packed=True)
    poly = run._stage(BN254_FR.random_vector(N, rng), "coefficient")
    before = poly.values()
    shard = poly.shards[1]
    shard[...] = 0
    assert poly.values() == before
    assert run._shards(poly) == _Run(BN254_FR, 4, packed=False)._shards(
        DistributedPolynomial.from_coefficients(
            UniNTTEngine(SimCluster(BN254_FR, 4)), before))


def test_staging_does_not_alias_the_callers_array(rng):
    run = _Run(BN254_FR, 4, packed=True)
    values = BN254_FR.random_vector(N, rng)
    arr = pack_values(packed_ops(BN254_FR, N), values)
    poly = DistributedPolynomial.from_coefficients(run.engine, arr)
    arr[...] = 0
    assert poly.values() == values


# -- fault paths, against the recorded golden ----------------------------------

#: (name, fault specs, ABFT checker attached): the replay of a
#: compute fault onto the resident output, unchecked and checked.
FAULT_CASES = (
    ("clean", (), False),
    ("bitflip", ("compute-bitflip@0:gpu=1,delta=9",), False),
    ("bitflip-late", ("compute-bitflip@3:gpu=0,delta=5",), False),
    ("bitflip-abft", ("compute-bitflip@0:gpu=1,delta=9",), True),
    ("double-abft", ("compute-bitflip@0:gpu=1,delta=9",
                     "compute-bitflip@1:gpu=0,delta=2"), True),
)
#: The Groth16 quotient's shape: interpolate, evaluate on the coset,
#: combine pointwise, interpolate from the coset.
FAULT_STEPS = (("stage-eval", 0, 0), ("inverse", 0, 0),
               ("forward-coset", 1, 1), ("mul", 2, 2), ("sub", 3, 2),
               ("checkpoint", 0, 0), ("shards", 3, 0), ("inverse", 3, 3))


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _fault_record(field, gpus: int, specs, checker: bool) -> dict:
    """Run the fault sequence packed; digest what each step produced."""
    run = _Run(field, gpus, packed=True, specs=specs, checker=checker)
    rng = random.Random(0x5EED + gpus)
    observed = []
    for kind, i, j in FAULT_STEPS:
        try:
            observed.append(_digest(
                run.step(kind, i, j, field.random_vector(N, rng))))
        except ResilienceError as error:
            observed.append(f"resilience: {error}")
    return {"steps": observed,
            "events": [list(event) for event in run.events()],
            "counters": run.counters(),
            "findings": sorted(f.check for f in check_trace(
                run.cluster.trace))}


def _fault_keys():
    return [(field, gpus, name)
            for field in FIELDS for gpus in (2, 4, 8)
            for name, _, _ in FAULT_CASES]


def _record() -> dict:
    cases = {name: (specs, checker) for name, specs, checker in FAULT_CASES}
    with use_backend("multilimb"):
        return {f"{field}-G{gpus}-{name}": _fault_record(
            FIELDS[field], gpus, *cases[name])
            for field, gpus, name in _fault_keys()}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("field,gpus,name", _fault_keys(),
                         ids=[f"{f}-G{g}-{n}" for f, g, n in _fault_keys()])
def test_fault_paths_match_the_recorded_golden(golden, field, gpus, name):
    specs, checker = {n: (s, c) for n, s, c in FAULT_CASES}[name]
    want = golden[f"{field}-G{gpus}-{name}"]
    got = json.loads(json.dumps(_fault_record(FIELDS[field], gpus, specs,
                                              checker)))
    assert got["steps"] == want["steps"]
    assert got["counters"] == want["counters"]
    assert got["events"] == want["events"]
    assert got["findings"] == want["findings"]


def test_golden_covers_both_fault_paths(golden):
    """The recorded cases really corrupt, detect and re-execute."""
    for field in FIELDS:
        unchecked = golden[f"{field}-G4-bitflip"]
        assert "trace.undetected-corruption" in unchecked["findings"]
        assert unchecked["steps"] != golden[f"{field}-G4-clean"]["steps"]
        checked = golden[f"{field}-G4-bitflip-abft"]
        assert checked["findings"] == []
        assert checked["steps"] == golden[f"{field}-G4-clean"]["steps"]
        assert any(event[0] == "abft-detect" for event in checked["events"])


if __name__ == "__main__":
    json.dump(_record(), sys.stdout, indent=None, separators=(",", ":"))
    sys.stdout.write("\n")
