"""Tests for the distributed NTT engines.

The two load-bearing guarantees:

1. **bit-exactness** — every engine, under every option set, produces
   exactly the single-node transform;
2. **accounting honesty** — the closed-form phase profiles the cost
   model prices match the functional simulator's counters byte-for-byte
   and multiply-for-multiply.
"""

import itertools
import random

import pytest

from repro.errors import PartitionError, SimulationError
from repro.field import (
    BLS12_381_FR, GOLDILOCKS, TEST_FIELD_7681, numpy_available, use_backend,
)
from repro.hw import DGX_A100, PipelinedGroup
from repro.multigpu import (
    ALL_OFF, ALL_ON, BaselineFourStepEngine, BlockLayout, CyclicLayout,
    DistributedVector, SingleGpuEngine, SpectralLayout, UniNTTEngine,
    UniNTTOptions, distribute,
)
from repro.ntt import intt, ntt
from repro.sim import SimCluster

F = TEST_FIELD_7681

ENGINES = [SingleGpuEngine, BaselineFourStepEngine, UniNTTEngine]


def run_forward(engine_cls, field, g, n, rng, **kwargs):
    cluster = SimCluster(field, g)
    engine = engine_cls(cluster, **kwargs)
    values = field.random_vector(n, rng)
    vec = DistributedVector.from_values(cluster, values,
                                        engine.input_layout(n))
    out = engine.forward(vec)
    return engine, values, out


class TestCorrectness:
    @pytest.mark.parametrize("engine_cls", ENGINES,
                             ids=lambda c: c.__name__)
    @pytest.mark.parametrize("g,n", [(2, 64), (4, 64), (4, 256), (8, 512)])
    def test_forward_matches_reference(self, engine_cls, g, n, rng):
        engine, values, out = run_forward(engine_cls, F, g, n, rng)
        assert out.to_values() == ntt(F, values)
        assert isinstance(out.layout, type(engine.output_layout(n)))

    @pytest.mark.parametrize("engine_cls", ENGINES,
                             ids=lambda c: c.__name__)
    def test_roundtrip(self, engine_cls, rng):
        engine, values, out = run_forward(engine_cls, F, 4, 256, rng)
        back = engine.inverse(out)
        assert back.to_values() == values
        assert isinstance(back.layout, type(engine.input_layout(256)))

    @pytest.mark.parametrize("field", [GOLDILOCKS, BLS12_381_FR],
                             ids=lambda f: f.name)
    def test_production_fields(self, field, rng):
        for engine_cls in ENGINES:
            engine, values, out = run_forward(engine_cls, field, 4, 64, rng)
            assert out.to_values() == ntt(field, values)

    def test_inverse_accepts_external_spectrum(self, rng):
        """INTT of an independently-computed spectrum works."""
        n, g = 256, 4
        values = F.random_vector(n, rng)
        spectrum = ntt(F, values)
        cluster = SimCluster(F, g)
        engine = UniNTTEngine(cluster)
        vec = DistributedVector.from_values(
            cluster, spectrum, SpectralLayout(n=n, gpu_count=g))
        assert engine.inverse(vec).to_values() == values

    def test_conservation_all_engines(self, rng):
        for engine_cls in ENGINES:
            engine, _, out = run_forward(engine_cls, F, 4, 64, rng)
            engine.inverse(out)
            engine.cluster.check_conservation()


class TestCollectiveCounts:
    def test_baseline_pays_three(self, rng):
        engine, _, _ = run_forward(BaselineFourStepEngine, F, 4, 256, rng)
        assert engine.cluster.trace.collective_count() == 3

    def test_unintt_pays_one(self, rng):
        engine, _, _ = run_forward(UniNTTEngine, F, 4, 256, rng)
        assert engine.cluster.trace.collective_count() == 1

    def test_unintt_materialized_pays_two(self, rng):
        engine, _, _ = run_forward(
            UniNTTEngine, F, 4, 256, rng,
            options=UniNTTOptions(keep_permuted_output=False))
        assert engine.cluster.trace.collective_count() == 2

    def test_roundtrip_collectives(self, rng):
        """NTT + INTT: baseline 6 exchanges, UniNTT 2."""
        for engine_cls, expected in ((BaselineFourStepEngine, 6),
                                     (UniNTTEngine, 2)):
            engine, _, out = run_forward(engine_cls, F, 4, 256, rng)
            engine.inverse(out)
            assert engine.cluster.trace.collective_count() == expected

    def test_unintt_moves_third_of_baseline_bytes(self, rng):
        results = {}
        for engine_cls in (BaselineFourStepEngine, UniNTTEngine):
            engine, _, _ = run_forward(engine_cls, F, 8, 512, rng)
            results[engine_cls] = engine.cluster.trace.bytes_by_level()[
                "multi-gpu"]
        assert results[BaselineFourStepEngine] == \
            3 * results[UniNTTEngine]


class TestOptionGrid:
    @pytest.mark.parametrize("fused,permuted,overlap,radix4",
                             itertools.product([True, False], repeat=4))
    def test_all_option_combinations_correct(self, fused, permuted,
                                             overlap, radix4, rng):
        options = UniNTTOptions(fused_twiddle=fused,
                                keep_permuted_output=permuted,
                                overlap=overlap, radix_fusion=radix4)
        engine, values, out = run_forward(UniNTTEngine, F, 4, 64, rng,
                                          options=options)
        assert out.to_values() == ntt(F, values)
        assert engine.inverse(out).to_values() == values


class TestAccountingHonesty:
    """Profiles priced by the cost model == counters the simulator saw."""

    def _flatten(self, profile):
        phases = []
        for step in profile:
            phases.extend(step.phases if isinstance(step, PipelinedGroup)
                          else [step])
        return phases

    @pytest.mark.parametrize("engine_cls,kwargs", [
        (SingleGpuEngine, {}),
        (SingleGpuEngine, {"naive": True}),
        (BaselineFourStepEngine, {}),
        (UniNTTEngine, {}),
        (UniNTTEngine, {"options": ALL_OFF}),
        (UniNTTEngine, {"options": UniNTTOptions(fused_twiddle=False)}),
        (UniNTTEngine,
         {"options": UniNTTOptions(keep_permuted_output=False)}),
        (UniNTTEngine, {"options": UniNTTOptions(radix_fusion=False)}),
    ], ids=lambda v: str(v))
    @pytest.mark.parametrize("inverse", [False, True],
                             ids=["forward", "inverse"])
    def test_profile_matches_simulator(self, engine_cls, kwargs, inverse,
                                       rng):
        n, g = 256, 4
        cluster = SimCluster(F, g)
        engine = engine_cls(cluster, **kwargs)
        values = F.random_vector(n, rng)
        if inverse:
            layout = engine.output_layout(n)
            vec = DistributedVector(cluster=cluster, layout=layout)
            cluster.load_shards(distribute(values, layout))
            engine.inverse(vec)
            profile = engine.inverse_profile(n)
        else:
            vec = DistributedVector.from_values(cluster, values,
                                                engine.input_layout(n))
            engine.forward(vec)
            profile = engine.forward_profile(n)
        phases = self._flatten(profile)

        expected_exchange = sum(p.exchange_bytes for p in phases)
        expected_muls = sum(p.field_muls for p in phases)
        expected_mem = sum(p.mem_bytes for p in phases)

        if engine_cls is SingleGpuEngine:
            # Work concentrates on the root; counters are root-centric.
            root = cluster.gpus[0].counters
            assert root.field_muls == expected_muls
            assert root.mem_traffic_bytes == expected_mem
            total_comm = sum(gpu.counters.bytes_sent
                             for gpu in cluster.gpus)
            assert total_comm == expected_exchange
        else:
            for gpu in cluster.gpus:
                assert gpu.counters.bytes_sent == expected_exchange
                assert gpu.counters.field_muls == expected_muls
                assert gpu.counters.mem_traffic_bytes == expected_mem


class TestEstimates:
    def test_engine_ordering_at_scale(self):
        n = 1 << 24
        cluster = SimCluster(BLS12_381_FR, 8)
        t_single = SingleGpuEngine(cluster).estimate(DGX_A100, n).total_s
        t_base = BaselineFourStepEngine(cluster).estimate(
            DGX_A100, n).total_s
        t_uni = UniNTTEngine(cluster).estimate(DGX_A100, n).total_s
        assert t_uni < t_base < t_single

    def test_each_optimization_helps_or_is_neutral(self):
        n = 1 << 24
        cluster = SimCluster(BLS12_381_FR, 8)
        t_on = UniNTTEngine(cluster, options=ALL_ON).estimate(
            DGX_A100, n).total_s
        for name in ("fused_twiddle", "keep_permuted_output", "overlap",
                     "radix_fusion"):
            t_off = UniNTTEngine(
                cluster, options=ALL_ON.without(name)).estimate(
                DGX_A100, n).total_s
            assert t_off >= t_on, name

    def test_all_off_still_beats_baseline_structure(self):
        """Even unoptimized, the one-exchange decomposition wins the
        three-transpose baseline at communication-bound scale."""
        n = 1 << 26
        cluster = SimCluster(BLS12_381_FR, 8)
        from repro.hw import A100_PCIE_NODE
        t_off = UniNTTEngine(cluster, options=ALL_OFF).estimate(
            A100_PCIE_NODE, n).total_s
        t_base = BaselineFourStepEngine(cluster).estimate(
            A100_PCIE_NODE, n).total_s
        assert t_off < t_base

    def test_inverse_estimate_close_to_forward(self):
        n = 1 << 20
        cluster = SimCluster(BLS12_381_FR, 8)
        engine = UniNTTEngine(cluster)
        fwd = engine.estimate(DGX_A100, n).total_s
        inv = engine.estimate(DGX_A100, n, inverse=True).total_s
        assert inv == pytest.approx(fwd, rel=0.15)


class TestValidation:
    def test_wrong_input_layout_rejected(self, rng):
        n, g = 64, 4
        cluster = SimCluster(F, g)
        engine = UniNTTEngine(cluster)
        vec = DistributedVector.from_values(
            cluster, F.random_vector(n, rng), BlockLayout(n=n, gpu_count=g))
        with pytest.raises(PartitionError, match="expects"):
            engine.forward(vec)

    def test_unintt_needs_square(self, rng):
        cluster = SimCluster(F, 8)
        engine = UniNTTEngine(cluster)
        vec = DistributedVector.from_values(
            cluster, F.random_vector(32, rng),
            CyclicLayout(n=32, gpu_count=8))
        with pytest.raises(PartitionError, match="G\\^2"):
            engine.forward(vec)

    def test_baseline_factor_requirement(self):
        cluster = SimCluster(F, 8)
        engine = BaselineFourStepEngine(cluster)
        with pytest.raises(PartitionError, match="divisible"):
            engine.forward_profile(32)  # 32 = 4 x 8: rows=4 < 8 GPUs

    def test_bad_tile_rejected(self):
        cluster = SimCluster(F, 2)
        with pytest.raises(SimulationError, match="tile"):
            UniNTTEngine(cluster, tile=3)

    def test_layout_cluster_mismatch(self):
        cluster = SimCluster(F, 2)
        with pytest.raises(PartitionError):
            DistributedVector(cluster=cluster,
                              layout=BlockLayout(n=16, gpu_count=4))


class TestSpectralPipeline:
    def test_distributed_convolution_in_permuted_layout(self, rng):
        """The overhead-free pipeline: NTT -> pointwise (in spectral
        layout, no transpose!) -> INTT computes a cyclic convolution."""
        from repro.ntt import naive_cyclic_convolution

        n, g = 256, 4
        a = F.random_vector(n, rng)
        b = F.random_vector(n, rng)
        p = F.modulus

        cluster = SimCluster(F, g)
        engine = UniNTTEngine(cluster)
        layout = engine.input_layout(n)

        vec_a = DistributedVector.from_values(cluster, a, layout)
        spec_a = engine.forward(vec_a)
        shards_a = cluster.peek_shards()

        vec_b = DistributedVector.from_values(cluster, b, layout)
        spec_b = engine.forward(vec_b)

        # Pointwise multiply shard-by-shard: layout-agnostic, no comm.
        for gpu, shard_a in zip(cluster.gpus, shards_a):
            gpu.shard = [x * y % p for x, y in zip(shard_a, gpu.shard)]

        product = engine.inverse(
            DistributedVector(cluster=cluster, layout=spec_b.layout))
        assert product.to_values() == naive_cyclic_convolution(F, a, b)
        # The whole pipeline used exactly 3 collectives (2 fwd + 1 inv).
        assert cluster.trace.collective_count() == 3


class TestDistributedCoset:
    def test_coset_forward_matches_reference(self, rng):
        from repro.ntt import coset_ntt

        n, g = 256, 4
        x = F.random_vector(n, rng)
        shift = F.multiplicative_generator
        cluster = SimCluster(F, g)
        engine = UniNTTEngine(cluster)
        vec = DistributedVector.from_values(cluster, x,
                                            engine.input_layout(n))
        out = engine.forward(vec, coset_shift=shift)
        assert out.to_values() == coset_ntt(F, x, shift)
        # still exactly one collective: the scaling fused locally.
        assert cluster.trace.collective_count() == 1

    def test_coset_roundtrip(self, rng):
        n, g = 64, 4
        x = F.random_vector(n, rng)
        cluster = SimCluster(F, g)
        engine = UniNTTEngine(cluster)
        vec = DistributedVector.from_values(cluster, x,
                                            engine.input_layout(n))
        out = engine.forward(vec, coset_shift=42)
        back = engine.inverse(out, coset_shift=42)
        assert back.to_values() == x

    def test_zero_shift_rejected(self, rng):
        n, g = 64, 4
        cluster = SimCluster(F, g)
        engine = UniNTTEngine(cluster)
        vec = DistributedVector.from_values(cluster,
                                            F.random_vector(n, rng),
                                            engine.input_layout(n))
        with pytest.raises(PartitionError, match="non-zero"):
            engine.forward(vec, coset_shift=0)

    def test_fused_coset_adds_no_memory_traffic(self, rng):
        """With fusion on, the coset scaling is multiplications only."""
        n, g = 256, 4
        x = F.random_vector(n, rng)
        mem = {}
        for shift in (None, 5):
            cluster = SimCluster(F, g)
            engine = UniNTTEngine(cluster)
            vec = DistributedVector.from_values(cluster, x,
                                                engine.input_layout(n))
            engine.forward(vec, coset_shift=shift)
            mem[shift] = cluster.gpus[0].counters.mem_traffic_bytes
        assert mem[5] == mem[None]

    def test_negacyclic_via_coset_shift(self, rng):
        """A psi-shift coset transform is the negacyclic NTT — the
        distributed engine supports it out of the box."""
        from repro.ntt import negacyclic_ntt, negacyclic_shift

        n, g = 256, 4
        x = F.random_vector(n, rng)
        psi = negacyclic_shift(F, n)
        cluster = SimCluster(F, g)
        engine = UniNTTEngine(cluster)
        vec = DistributedVector.from_values(cluster, x,
                                            engine.input_layout(n))
        out = engine.forward(vec, coset_shift=psi)
        assert out.to_values() == negacyclic_ntt(F, x)


@pytest.mark.skipif(not numpy_available(), reason="needs numpy")
class TestVectorizedPath:
    """The numpy backend runs the local transforms on lanes; the python
    backend runs them as scalar code.  Only the host route differs."""

    def test_bit_identical_to_scalar(self, rng):
        n, g = 512, 4
        x = GOLDILOCKS.random_vector(n, rng)
        results = []
        for backend in ("python", "numpy"):
            with use_backend(backend):
                cluster = SimCluster(GOLDILOCKS, g)
                engine = UniNTTEngine(cluster)
                vec = DistributedVector.from_values(cluster, x,
                                                    engine.input_layout(n))
                out = engine.forward(vec)
                results.append(out.to_values())
                assert engine.inverse(out).to_values() == x
        assert results[0] == results[1] == ntt(GOLDILOCKS, x)

    def test_counters_unchanged_by_vectorization(self, rng):
        """Vectorization is an implementation detail: the model's
        charges (the *algorithm's* work) are identical."""
        n, g = 256, 4
        x = GOLDILOCKS.random_vector(n, rng)
        counters = []
        for backend in ("python", "numpy"):
            with use_backend(backend):
                cluster = SimCluster(GOLDILOCKS, g)
                engine = UniNTTEngine(cluster)
                vec = DistributedVector.from_values(cluster, x,
                                                    engine.input_layout(n))
                engine.forward(vec)
            counters.append(cluster.gpus[0].counters.snapshot())
        assert counters[0] == counters[1]

    def test_coset_shift_with_vectorized(self, rng):
        from repro.ntt import coset_ntt

        n, g = 256, 4
        x = GOLDILOCKS.random_vector(n, rng)
        with use_backend("numpy"):
            cluster = SimCluster(GOLDILOCKS, g)
            engine = UniNTTEngine(cluster)
            vec = DistributedVector.from_values(cluster, x,
                                                engine.input_layout(n))
            out = engine.forward(vec, coset_shift=7)
        assert out.to_values() == coset_ntt(GOLDILOCKS, x, 7)
