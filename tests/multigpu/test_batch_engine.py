"""Tests for the batched distributed transform."""

import pytest

from repro.errors import PartitionError, SimulationError
from repro.field import BLS12_381_FR, TEST_FIELD_7681
from repro.hw import DGX_A100, PipelinedGroup
from repro.multigpu import BatchedDistributedNTT, UniNTTEngine
from repro.ntt import intt, ntt
from repro.sim import SimCluster

F = TEST_FIELD_7681


def make(strategy, gpus=4):
    cluster = SimCluster(F, gpus)
    return BatchedDistributedNTT(cluster, strategy=strategy)


class TestCorrectness:
    @pytest.mark.parametrize("strategy", ["replicate", "split"])
    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_matches_individual(self, strategy, batch_size, rng):
        engine = make(strategy)
        batch = [F.random_vector(64, rng) for _ in range(batch_size)]
        assert engine.forward(batch) == [ntt(F, v) for v in batch]

    @pytest.mark.parametrize("strategy", ["replicate", "split"])
    def test_roundtrip(self, strategy, rng):
        engine = make(strategy)
        batch = [F.random_vector(64, rng) for _ in range(5)]
        assert engine.inverse(engine.forward(batch)) == batch

    def test_replicate_needs_no_communication(self, rng):
        engine = make("replicate")
        engine.forward([F.random_vector(64, rng) for _ in range(8)])
        assert engine.cluster.trace.collective_count() == 0
        assert all(g.counters.bytes_sent == 0
                   for g in engine.cluster.gpus)

    def test_split_communicates(self, rng):
        engine = make("split")
        engine.forward([F.random_vector(64, rng)])
        assert engine.cluster.trace.collective_count() >= 1


class TestValidation:
    def test_bad_strategy(self):
        with pytest.raises(SimulationError, match="strategy"):
            BatchedDistributedNTT(SimCluster(F, 2), strategy="magic")

    def test_empty_batch(self):
        with pytest.raises(PartitionError, match="empty"):
            make("replicate").forward([])

    def test_ragged_batch(self):
        with pytest.raises(PartitionError, match="share a size"):
            make("replicate").forward([[1, 2], [1, 2, 3, 4]])

    def test_profile_batch_validation(self):
        with pytest.raises(PartitionError, match="batch"):
            make("replicate").forward_profile(64, 0)


class TestEstimates:
    def test_replicate_profile_uses_busiest_gpu(self):
        engine = make("replicate", gpus=4)
        # 5 vectors over 4 GPUs: the busiest does 2.
        profile = engine.forward_profile(256, 5)
        assert len(profile) == 1
        from repro.multigpu import local_ntt_muls
        assert profile[0].field_muls == 2 * local_ntt_muls(256)

    def test_split_profile_scales_with_batch(self):
        engine = make("split", gpus=4)
        one = engine.estimate(DGX_A100.with_gpu_count(4), 1 << 20, 1)
        four = engine.estimate(DGX_A100.with_gpu_count(4), 1 << 20, 4)
        assert four.total_s == pytest.approx(4 * one.total_s, rel=1e-6)

    def test_replicate_wins_throughput_on_nvswitch(self):
        cluster = SimCluster(BLS12_381_FR, 8)
        replicate = BatchedDistributedNTT(cluster, strategy="replicate")
        split = BatchedDistributedNTT(cluster, strategy="split")
        n, batch = 1 << 20, 16
        assert replicate.estimate(DGX_A100, n, batch).total_s < \
            split.estimate(DGX_A100, n, batch).total_s

    def test_crossover_finder(self):
        cluster = SimCluster(BLS12_381_FR, 8)
        engine = BatchedDistributedNTT(cluster)
        crossover = engine.crossover_batch(DGX_A100, 1 << 20)
        assert crossover is not None and crossover >= 1

    def test_custom_inner_engine(self, rng):
        cluster = SimCluster(F, 4)
        inner = UniNTTEngine(cluster, tile=256)
        engine = BatchedDistributedNTT(cluster, strategy="split",
                                       inner=inner)
        batch = [F.random_vector(64, rng)]
        assert engine.forward(batch) == [ntt(F, batch[0])]

    @pytest.mark.parametrize("strategy", ["replicate", "split"])
    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    @pytest.mark.parametrize("batch_size", [3, 6, 9])
    def test_profile_muls_equal_busiest_gpu(self, strategy, direction,
                                            batch_size, rng):
        # The profile a dispatch is priced with must charge what the
        # run charges: an inverse pays its 1/n scale on every vector.
        engine = make(strategy)
        batch = [F.random_vector(64, rng) for _ in range(batch_size)]
        getattr(engine, direction)(batch)
        profile = getattr(engine, f"{direction}_profile")(64, batch_size)
        phases = [phase for step in profile
                  for phase in (step.phases
                                if isinstance(step, PipelinedGroup)
                                else (step,))]
        busiest = max(g.counters.field_muls for g in engine.cluster.gpus)
        assert sum(phase.field_muls for phase in phases) == busiest
