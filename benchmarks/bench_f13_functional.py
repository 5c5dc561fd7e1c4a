"""F13: wall-clock micro-benchmarks of the functional kernels.

Unlike F7-F12 (analytic tables), these measure the *actual Python
execution time* of the library's kernels via pytest-benchmark — the
numbers regression-tested when optimizing the implementation itself.
"""

import random

import pytest

from repro.field import BLS12_381_FR, GOLDILOCKS, use_backend
from repro.multigpu import DistributedVector, UniNTTEngine
from repro.ntt import intt, ntt, ntt_radix4
from repro.sim import SimCluster

RNG = random.Random(1234)


@pytest.mark.parametrize("field", [GOLDILOCKS, BLS12_381_FR],
                         ids=lambda f: f.name)
@pytest.mark.parametrize("log_n", [10, 12])
def test_f13_radix2_forward(benchmark, field, log_n):
    values = field.random_vector(1 << log_n, RNG)
    result = benchmark(ntt, field, values)
    assert intt(field, result) == values


@pytest.mark.parametrize("log_n", [10, 12])
def test_f13_radix4_forward(benchmark, log_n):
    field = GOLDILOCKS
    values = field.random_vector(1 << log_n, RNG)
    result = benchmark(ntt_radix4, field, values)
    assert result == ntt(field, values)


@pytest.mark.parametrize("gpus", [4, 8])
def test_f13_unintt_distributed(benchmark, gpus):
    field = GOLDILOCKS
    n = 1 << 12
    values = field.random_vector(n, RNG)
    cluster = SimCluster(field, gpus)
    engine = UniNTTEngine(cluster)
    layout = engine.input_layout(n)

    def run():
        vec = DistributedVector.from_values(cluster, values, layout)
        return engine.forward(vec)

    out = benchmark(run)
    assert out.to_values() == ntt(field, values)


@pytest.mark.parametrize("log_n", [12, 14])
def test_f13_goldilocks_vectorized(benchmark, log_n):
    """Goldilocks radix-2 on the numpy backend's lane kernels."""
    field = GOLDILOCKS
    values = field.random_vector(1 << log_n, RNG)
    with use_backend("python"):
        want = ntt(field, values)
    with use_backend("numpy"):
        result = benchmark(ntt, field, values)
    assert result == want


@pytest.mark.parametrize("log_n", [10, 12])
def test_f13_stockham_forward(benchmark, log_n):
    from repro.ntt import ntt_stockham

    field = GOLDILOCKS
    values = field.random_vector(1 << log_n, RNG)
    result = benchmark(ntt_stockham, field, values)
    assert result == ntt(field, values)


@pytest.mark.parametrize("backend", ["python", "numpy"],
                         ids=["scalar", "vectorized"])
def test_f13_unintt_local_path(benchmark, backend):
    """UniNTT with its local transforms on scalar code or numpy lanes."""
    field = GOLDILOCKS
    n = 1 << 12
    values = field.random_vector(n, RNG)
    cluster = SimCluster(field, 8)
    engine = UniNTTEngine(cluster)
    layout = engine.input_layout(n)

    def run():
        vec = DistributedVector.from_values(cluster, values, layout)
        return engine.forward(vec)

    with use_backend(backend):
        out = benchmark(run)
    assert out.to_values() == ntt(field, values)
