"""Tests for the autotuning layer."""

import pytest

from repro.errors import HardwareModelError
from repro.field import BLS12_381_FR, GOLDILOCKS
from repro.hw import A100_PCIE_NODE, DGX_A100, DGX_H100
from repro.hw.cost import field_limbs
from repro.multigpu import autotune_tile, select_engine
from repro.ntt import hierarchical_plan, ntt, plan_ntt


def _machine_fanouts(machine, field):
    """The machine's level fanouts, each rounded down to a power of two."""
    levels = machine.levels(field_limbs(field) * 8)
    return [1 << (spec.fanout.bit_length() - 1) for spec in levels]


class TestMachinePlan:
    """A decomposition tree shaped by a machine's hierarchy description."""

    def test_outermost_is_gpu_count(self):
        fanouts = _machine_fanouts(DGX_A100, GOLDILOCKS)
        plan = hierarchical_plan(1 << 20, fanouts)
        assert plan.radix[0] == 8

    def test_executes_correctly(self, rng):
        n = 1 << 10
        fanouts = _machine_fanouts(DGX_A100, GOLDILOCKS)
        plan = hierarchical_plan(n, fanouts, leaf_size=4)
        x = GOLDILOCKS.random_vector(n, rng)
        assert plan_ntt(GOLDILOCKS, plan, x) == ntt(GOLDILOCKS, x)

    def test_small_transform_skips_levels(self):
        fanouts = _machine_fanouts(DGX_A100, GOLDILOCKS)
        plan = hierarchical_plan(64, fanouts)
        assert plan.size == 64
        assert plan.depth() <= 2


class TestAutotuneTile:
    def test_returns_valid_tile(self):
        tile, seconds = autotune_tile(DGX_A100, BLS12_381_FR, 1 << 24)
        assert tile >= 64 and tile & (tile - 1) == 0
        assert seconds > 0
        eb = 32
        assert tile <= DGX_A100.gpu.smem_per_block_bytes // eb

    def test_never_worse_than_any_candidate(self):
        """The tuner's pick is at least as fast as fixed defaults."""
        from repro.multigpu import UniNTTEngine
        from repro.sim import SimCluster

        n = 1 << 26
        _, best_seconds = autotune_tile(DGX_A100, GOLDILOCKS, n)
        for tile in (64, 512, 4096):
            cluster = SimCluster(GOLDILOCKS, 8)
            seconds = UniNTTEngine(cluster, tile=tile).estimate(
                DGX_A100, n).total_s
            assert best_seconds <= seconds + 1e-12

    def test_explicit_gpu_count(self):
        tile, _ = autotune_tile(DGX_A100, GOLDILOCKS, 1 << 20, gpu_count=2)
        assert tile >= 64


class TestSelectEngine:
    def test_ranked_fastest_first(self):
        choices = select_engine(DGX_A100, BLS12_381_FR, 1 << 24)
        seconds = [c.seconds for c in choices]
        assert seconds == sorted(seconds)
        assert len(choices) == 4

    def test_unintt_wins_at_scale(self):
        choices = select_engine(A100_PCIE_NODE, BLS12_381_FR, 1 << 24)
        assert choices[0].name.startswith("unintt")

    def test_small_sizes_exclude_constrained_engines(self):
        """At n < G^2 the spectral engines drop out but something runs."""
        choices = select_engine(DGX_H100, GOLDILOCKS, 32)
        names = [c.name for c in choices]
        assert names  # single-gpu at minimum
        assert all("unintt" not in name for name in names)

    def test_bottleneck_reported(self):
        choices = select_engine(A100_PCIE_NODE, BLS12_381_FR, 1 << 26)
        assert choices[0].bottleneck in ("compute", "memory", "exchange")


class TestClusterSelectEngine:
    def test_plain_machine_pool_is_unchanged(self):
        # The original four-engine contract must not grow on plain
        # machines — schedule candidates join only on clusters.
        choices = select_engine(DGX_A100, BLS12_381_FR, 1 << 24)
        assert len(choices) == 4
        assert all(not c.name.startswith("sched:") for c in choices)

    def test_cluster_pool_includes_schedule_candidates(self):
        from repro.hw import FOUR_NODE_DGX_A100

        choices = select_engine(FOUR_NODE_DGX_A100, BLS12_381_FR,
                                1 << 24)
        names = [c.name for c in choices]
        assert any(name.startswith("sched:") for name in names)
        assert any(not name.startswith("sched:") for name in names)
        seconds = [c.seconds for c in choices]
        assert seconds == sorted(seconds)

    def test_synthesized_schedule_wins_on_the_cluster(self):
        from repro.hw import FOUR_NODE_DGX_A100

        choices = select_engine(FOUR_NODE_DGX_A100, BLS12_381_FR,
                                1 << 24)
        assert choices[0].name.startswith("sched:")
        assert "@hier[" in choices[0].name


class TestSelectSchedule:
    def test_ranked_with_validated_costs(self):
        from repro.multigpu import select_schedule

        choices = select_schedule(DGX_A100, BLS12_381_FR, 1 << 20)
        assert len(choices) == 2
        seconds = [c.seconds for c in choices]
        assert seconds == sorted(seconds)
        for choice in choices:
            assert choice.cost.validate() == []
            assert choice.schedule.num_gpus == DGX_A100.gpu_count

    def test_cluster_ranking_prefers_hierarchy(self):
        from repro.hw import FOUR_NODE_DGX_A100
        from repro.multigpu import select_schedule

        choices = select_schedule(FOUR_NODE_DGX_A100, BLS12_381_FR,
                                  1 << 24)
        assert len(choices) == 3
        assert choices[0].synthesized
        assert "@hier[" in choices[0].name
        flat = next(c for c in choices if not c.synthesized)
        assert choices[0].cost.total_s < flat.cost.total_s
