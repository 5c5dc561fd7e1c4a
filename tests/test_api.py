"""Public-API consistency checks.

``__all__`` is the published surface; every name in it must resolve,
and the subpackage re-exports must stay importable — the cheapest guard
against stale export lists as the library grows.
"""

import importlib

import pytest

PACKAGES = [
    "repro", "repro.field", "repro.ntt", "repro.hw", "repro.sim",
    "repro.multigpu", "repro.zkp", "repro.bench",
]

MODULES = [
    "repro.errors", "repro.cli",
    "repro.field.prime_field", "repro.field.montgomery",
    "repro.field.presets", "repro.field.vector",
    "repro.field.goldilocks", "repro.field.simd",
    "repro.ntt.reference", "repro.ntt.radix2", "repro.ntt.radix4",
    "repro.ntt.stockham", "repro.ntt.bluestein",
    "repro.ntt.montgomery_ntt", "repro.ntt.fourstep", "repro.ntt.plan",
    "repro.ntt.recursive", "repro.ntt.coset", "repro.ntt.batch",
    "repro.ntt.polymul", "repro.ntt.twiddle",
    "repro.hw.model", "repro.hw.topology", "repro.hw.machines",
    "repro.hw.cost", "repro.hw.multinode", "repro.hw.plancost", "repro.hw.serialize",
    "repro.sim.device", "repro.sim.cluster", "repro.sim.trace",
    "repro.sim.uniform", "repro.sim.report",
    "repro.multigpu.layout", "repro.multigpu.base",
    "repro.multigpu.accounting", "repro.multigpu.schedule",
    "repro.multigpu.singlegpu", "repro.multigpu.baseline",
    "repro.multigpu.pairwise", "repro.multigpu.unintt",
    "repro.multigpu.hierarchical", "repro.multigpu.batch_engine",
    "repro.multigpu.autotune", "repro.multigpu.polynomial",
    "repro.multigpu.streaming",
    "repro.zkp.domain", "repro.zkp.polynomial", "repro.zkp.curve",
    "repro.zkp.msm", "repro.zkp.r1cs", "repro.zkp.circuits",
    "repro.zkp.qap", "repro.zkp.prover", "repro.zkp.kzg",
    "repro.zkp.merkle", "repro.zkp.fri", "repro.zkp.profiles",
    "repro.zkp.pipeline", "repro.zkp.stark_model", "repro.zkp.stark",
    "repro.zkp.mimc", "repro.zkp.groth16", "repro.zkp.pairing",
    "repro.bench.workloads", "repro.bench.reporting",
    "repro.bench.charts",
    "repro.bench.runners",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_all_resolves(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} has no __all__"
    for symbol in module.__all__:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


@pytest.mark.parametrize("name", PACKAGES)
def test_no_duplicate_exports(name):
    module = importlib.import_module(name)
    assert len(module.__all__) == len(set(module.__all__)), \
        f"{name}.__all__ has duplicates"


@pytest.mark.parametrize("name", MODULES)
def test_module_importable(name):
    module = importlib.import_module(name)
    if hasattr(module, "__all__"):
        for symbol in module.__all__:
            assert hasattr(module, symbol), f"{name}.{symbol} missing"


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_every_module_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__ and len(module.__doc__.strip()) > 20, \
        f"{name} lacks a meaningful module docstring"


def test_version_exposed():
    import repro

    assert repro.__version__
