"""Chaos tests: resilient engines complete bit-exactly under faults.

The grid crosses fault kinds x engines x cluster shapes.  Every
recoverable scenario must (a) reproduce the fault-free reference
bit-exactly, (b) leave a trace that ``check_trace`` accepts — in
particular every aborting fault must be matched by a retry/reshard —
and (c) cost strictly more than the clean run.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.tracecheck import check_trace
from repro.errors import ResilienceError, SimulationError
from repro.field import TEST_FIELD_7681
from repro.hw import DGX_A100
from repro.multigpu import (
    DistributedVector, PairwiseExchangeEngine, ResilienceReport,
    ResilientNTTEngine, RetryPolicy, UniNTTEngine, VectorCheckpoint,
)
from repro.ntt import ntt
from repro.sim import FaultInjector, FaultPlan, SimCluster

F = TEST_FIELD_7681

ENGINES = [UniNTTEngine, PairwiseExchangeEngine]
SHAPES = [(4, 256), (8, 512)]

# Every fault targets collective step 0 so it hits both engine
# families: UniNTT runs a single all-to-all per transform, the pairwise
# engine runs log2(g) exchanges.
FAULT_GRID = [
    ("clean", []),
    ("transient", ["transient-comm@0"]),
    ("corrupt", ["corrupt-shard@0:gpu=1,delta=9"]),
    ("degrade", ["link-degrade@0:factor=0.5"]),
    ("straggler", ["straggler@0:gpu=0,factor=2"]),
    ("death", ["device-death@0:gpu=1"]),
    ("combo", ["transient-comm@0", "link-degrade@1:factor=0.5"]),
]


def resilient_setup(engine_cls, gpus, specs, seed=0xC0C0):
    plan = FaultPlan.from_specs(specs, seed=seed)
    injector = FaultInjector(plan, F.modulus)
    cluster = SimCluster(F, gpus, injector=injector)
    return ResilientNTTEngine(cluster, engine_cls, seed=seed)


class TestChaosGrid:
    @pytest.mark.parametrize("gpus,n", SHAPES,
                             ids=[f"{g}gpu-n{n}" for g, n in SHAPES])
    @pytest.mark.parametrize("engine_cls", ENGINES,
                             ids=lambda c: c.__name__)
    @pytest.mark.parametrize("name,specs", FAULT_GRID,
                             ids=[name for name, _ in FAULT_GRID])
    def test_recoverable_faults_are_bit_exact(self, name, specs,
                                              engine_cls, gpus, n, rng):
        values = F.random_vector(n, rng)
        reference = ntt(F, values)

        engine = resilient_setup(engine_cls, gpus, specs)
        vec = DistributedVector.from_values(
            engine.cluster, values, engine.input_layout(n))
        out = engine.forward(vec)

        assert out.to_values() == reference
        findings = check_trace(engine.cluster.trace)
        assert findings == [], [str(f) for f in findings]

    @pytest.mark.parametrize("engine_cls", ENGINES,
                             ids=lambda c: c.__name__)
    def test_faulty_run_costs_strictly_more(self, engine_cls, rng):
        gpus, n = 4, 256
        values = F.random_vector(n, rng)

        costs = {}
        for name, specs in [("clean", []),
                            ("transient", ["transient-comm@0"]),
                            ("death", ["device-death@0:gpu=2"])]:
            engine = resilient_setup(engine_cls, gpus, specs)
            vec = DistributedVector.from_values(
                engine.cluster, values, engine.input_layout(n))
            engine.forward(vec)
            costs[name] = engine.report.plan_cost(DGX_A100)
        assert costs["transient"].total_s > costs["clean"].total_s
        assert costs["death"].total_s > costs["clean"].total_s

    def test_device_death_reshards_onto_survivors(self, rng):
        n = 256
        values = F.random_vector(n, rng)
        engine = resilient_setup(UniNTTEngine, 4,
                                 ["device-death@0:gpu=3"])
        vec = DistributedVector.from_values(
            engine.cluster, values, engine.input_layout(n))
        out = engine.forward(vec)
        assert engine.gpu_count == 2  # 3 survivors -> 2 (power of two)
        assert engine.report.gpu_counts == [4, 2]
        assert engine.report.reshards == 1
        assert out.to_values() == ntt(F, values)
        kinds = [e.kind for e in engine.cluster.trace.events]
        assert "reshard" in kinds and "fault" in kinds

    def test_roundtrip_with_coset_under_fault(self, rng):
        n = 128
        values = F.random_vector(n, rng)
        shift = 3
        engine = resilient_setup(UniNTTEngine, 4, ["transient-comm@0"])
        vec = DistributedVector.from_values(
            engine.cluster, values, engine.input_layout(n))
        out = engine.forward(vec, coset_shift=shift)
        back = engine.inverse(out, coset_shift=shift)
        assert back.to_values() == values

    def test_exhausted_retries_raise(self, rng):
        n = 64
        engine = resilient_setup(UniNTTEngine, 4,
                                 ["transient-comm@0:count=10"])
        vec = DistributedVector.from_values(
            engine.cluster, F.random_vector(n, rng),
            engine.input_layout(n))
        with pytest.raises(ResilienceError, match="after 3 attempt"):
            engine.forward(vec)
        # the unanswered final fault must be visible to the detector
        findings = check_trace(engine.cluster.trace)
        assert any(f.check == "trace.unresolved-fault"
                   for f in findings)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(SimulationError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(SimulationError, match=">= 0"):
            RetryPolicy(backoff_messages=-1)
        with pytest.raises(SimulationError, match="backoff_cap_doublings"):
            RetryPolicy(backoff_cap_doublings=-1)

    def test_backoff_doubles(self):
        policy = RetryPolicy(backoff_messages=4)
        assert [policy.backoff_units(a) for a in (1, 2, 3)] == [4, 8, 16]

    def test_backoff_saturates_at_cap(self):
        policy = RetryPolicy(backoff_messages=4, backoff_cap_doublings=3)
        assert [policy.backoff_units(a) for a in (3, 4, 5, 6, 100)] \
            == [16, 32, 32, 32, 32]

    @given(messages=st.integers(min_value=0, max_value=64),
           cap=st.integers(min_value=0, max_value=20),
           attempt=st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=100)
    def test_backoff_is_monotone_bounded_and_truncated(
            self, messages, cap, attempt):
        """Truncated exponential backoff, property-tested.

        For any policy and any attempt number: the charge never
        exceeds the saturation value ``messages * 2**cap`` (no
        unbounded exponent for a large ``max_attempts``), never
        shrinks as attempts grow, and matches the exact doubling
        schedule before the cap bites.
        """
        policy = RetryPolicy(backoff_messages=messages,
                             backoff_cap_doublings=cap)
        units = policy.backoff_units(attempt)
        assert 0 <= units <= messages * (2 ** cap)
        assert units <= policy.backoff_units(attempt + 1)
        if attempt - 1 <= cap:
            assert units == messages * (2 ** (attempt - 1))
        else:
            assert units == messages * (2 ** cap)


class TestCheckpoint:
    def test_checkpoint_restores_across_layouts(self, rng):
        n = 64
        values = F.random_vector(n, rng)
        cluster = SimCluster(F, 4)
        engine = UniNTTEngine(cluster)
        vec = DistributedVector.from_values(cluster, values,
                                            engine.input_layout(n))
        ckpt = vec.checkpoint()
        assert isinstance(ckpt, VectorCheckpoint)
        assert ckpt.n == n
        assert cluster.trace.events[-1].kind == "checkpoint"

        # restore onto a *different* cluster shape: the checkpoint is
        # layout-independent, which is what makes resharding possible.
        small = SimCluster(F, 2)
        other = UniNTTEngine(small)
        restored = DistributedVector.restore(small, ckpt,
                                             other.input_layout(n))
        assert restored.to_values() == values

    def test_restore_rejects_size_mismatch(self, rng):
        cluster = SimCluster(F, 2)
        engine = UniNTTEngine(cluster)
        vec = DistributedVector.from_values(
            cluster, F.random_vector(64, rng), engine.input_layout(64))
        ckpt = vec.checkpoint()
        with pytest.raises(SimulationError, match="128"):
            DistributedVector.restore(cluster, ckpt,
                                      engine.input_layout(128))


class TestResilientEngineInterface:
    def test_factory_must_bind_given_cluster(self):
        cluster = SimCluster(F, 4)
        stray = SimCluster(F, 4)
        with pytest.raises(SimulationError, match="bind"):
            ResilientNTTEngine(cluster, lambda c: UniNTTEngine(stray))

    def test_delegates_engine_surface(self):
        cluster = SimCluster(F, 4)
        engine = ResilientNTTEngine(cluster, UniNTTEngine)
        inner = UniNTTEngine(SimCluster(F, 4))
        assert engine.field is F
        assert engine.gpu_count == 4
        assert engine.name == f"resilient[{inner.name}]"
        assert engine.input_layout(256) == inner.input_layout(256)
        assert engine.output_layout(256) == inner.output_layout(256)
        est = engine.estimate(DGX_A100, 1024)
        assert est.total_s > 0

    def test_report_summary_and_plan_cost_validate(self, rng):
        engine = resilient_setup(UniNTTEngine, 4, ["transient-comm@0"])
        n = 64
        vec = DistributedVector.from_values(
            engine.cluster, F.random_vector(n, rng),
            engine.input_layout(n))
        engine.forward(vec)
        summary = engine.report.summary()
        assert summary["retries"] == 1
        assert summary["wasted_attempts"] == 1
        assert summary["transforms"] == 1
        cost = engine.report.plan_cost(DGX_A100)
        cost.validate()
        assert cost.total_s > 0

    def test_empty_report_prices_to_zero(self):
        report = ResilienceReport(field=F)
        assert report.breakdown(DGX_A100).total_s == 0.0


class TestPackedBigFieldBoundary:
    """Limb-packed big-field arrays round-trip through checkpoint/restore.

    Under the multi-limb backend a big-field vector may reach the
    staging boundary as a packed ``(L, n)`` limb-plane array.  Shards
    and checkpoints must still hold plain ints — the loader must never
    iterate an element into its limb rows.
    """

    def _skip_without_numpy(self):
        from repro.field import numpy_available

        if not numpy_available():
            pytest.skip("multi-limb backend needs numpy")

    def test_packed_planes_round_trip_checkpoint_restore(self, rng):
        self._skip_without_numpy()
        from repro.field import BN254_FR, NumPyBackend, use_backend

        n = 64
        values = BN254_FR.random_vector(n, rng)
        backend = NumPyBackend()
        packed = backend.pack(BN254_FR, values)
        assert getattr(packed, "ndim", 0) == 2  # really limb planes
        with use_backend("multilimb"):
            cluster = SimCluster(BN254_FR, 4)
            engine = UniNTTEngine(cluster)
            vec = DistributedVector.from_values(
                cluster, packed, engine.input_layout(n))
            # shards hold plain ints, never limb rows / numpy scalars
            for gpu in cluster.gpus:
                assert all(type(v) is int for v in gpu.shard)
            assert vec.to_values() == values

            ckpt = vec.checkpoint()
            assert ckpt.values == tuple(values)
            restored = DistributedVector.restore(
                cluster, ckpt, engine.input_layout(n))
            assert restored.to_values() == values

    def test_resilient_transform_accepts_packed_input(self, rng):
        self._skip_without_numpy()
        from repro.field import BN254_FR, NumPyBackend, use_backend

        n = 64
        values = BN254_FR.random_vector(n, rng)
        packed = NumPyBackend().pack(BN254_FR, values)
        with use_backend("multilimb"):
            reference = ntt(BN254_FR, values)
            plan = FaultPlan.from_specs(["transient-comm@0"], seed=7)
            injector = FaultInjector(plan, BN254_FR.modulus)
            cluster = SimCluster(BN254_FR, 4, injector=injector)
            engine = ResilientNTTEngine(cluster, UniNTTEngine, seed=7)
            vec = DistributedVector.from_values(
                cluster, packed, engine.input_layout(n))
            out = engine.forward(vec)
            assert out.to_values() == reference
            assert engine.report.retries == 1

    def test_shard_loader_rejects_raw_planes(self, rng):
        self._skip_without_numpy()
        from repro.field import BN254_FR, NumPyBackend

        packed = NumPyBackend().pack(BN254_FR, BN254_FR.random_vector(8, rng))
        cluster = SimCluster(BN254_FR, 2)
        with pytest.raises(SimulationError, match="staging boundary"):
            cluster.gpus[0].load(packed)

    def test_validate_vector_accepts_packed_planes(self, rng):
        self._skip_without_numpy()
        from repro.field import (
            BN254_FR, NumPyBackend, use_backend, validate_vector,
        )

        packed = NumPyBackend().pack(BN254_FR, BN254_FR.random_vector(8, rng))
        with use_backend("multilimb"):
            validate_vector(BN254_FR, packed)  # does not raise


class TestOutputProbe:
    """The end-to-end probe checks the whole output at random points,
    so a corruption confined to a few outputs cannot slip past it."""

    CASES = [("flat", 0)] + [("hierarchical", step) for step in range(4)]

    @pytest.mark.parametrize("shape,step", CASES,
                             ids=[f"{s}-step{t}" for s, t in CASES])
    def test_confined_compute_fault_is_detected_without_abft(self, shape,
                                                             step):
        import random

        from repro.field import GOLDILOCKS
        from repro.multigpu import HierarchicalUniNTTEngine

        field, n = GOLDILOCKS, 1 << 8
        values = field.random_vector(n, random.Random(step))
        plan = FaultPlan.from_specs(
            [f"compute-bitflip@{step}:gpu=1,delta=9"], seed=5)
        injector = FaultInjector(plan, field.modulus)
        if shape == "flat":
            cluster = SimCluster(field, 4, injector=injector)
            engine_cls = UniNTTEngine
        else:
            cluster = SimCluster(field, 4, node_size=2, injector=injector)
            engine_cls = HierarchicalUniNTTEngine
        engine = ResilientNTTEngine(cluster, engine_cls, abft=False)
        out = engine.forward(DistributedVector.from_values(
            cluster, values, engine.input_layout(n)))
        assert out.to_values() == ntt(field, values)
        assert engine.report.retries == 1
        assert check_trace(cluster.trace) == []

    @pytest.mark.parametrize("shift", [None, 3], ids=["plain", "coset"])
    @pytest.mark.parametrize("inverse", [False, True], ids=["fwd", "inv"])
    def test_one_wrong_output_fails_the_probe(self, inverse, shift, rng):
        from repro.errors import ShardCorruptionError

        n = 256
        engine = ResilientNTTEngine(SimCluster(F, 4), UniNTTEngine)
        vec = DistributedVector.from_values(
            engine.cluster, F.random_vector(n, rng),
            engine.input_layout(n))
        ckpt = vec.checkpoint()
        out = engine.engine.forward(vec, coset_shift=shift)
        if inverse:
            ckpt = out.checkpoint()
            out = engine.engine.inverse(out, coset_shift=shift)
        engine._probe(ckpt, out, inverse, shift, n)  # the true output
        out.cluster.gpus[2].shard[5] = (out.cluster.gpus[2].shard[5] + 1) \
            % F.modulus
        with pytest.raises(ShardCorruptionError, match="output probe"):
            engine._probe(ckpt, out, inverse, shift, n)
