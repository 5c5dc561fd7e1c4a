"""Tests for pricing UniNTT programs."""

import pytest

from repro.errors import HardwareModelError
from repro.field import BLS12_381_FR, GOLDILOCKS
from repro.hw import DGX1_V100, DGX_A100, FOUR_NODE_DGX_A100, price_schedule
from repro.multigpu import alltoall_bytes_per_gpu
from repro.multigpu.schedule import CommSchedule, LocalOp


def unintt(n, gpus, eb, fanouts=()):
    from repro.multigpu.schedule import build_unintt_schedule

    return build_unintt_schedule(n, gpus, eb, fanouts=fanouts)


class TestPricing:
    """The program is the one pricer: its ops set every charge."""

    def test_leaf_plan_has_no_exchanges(self):
        local = LocalOp(name="local-ntt", consumes="input",
                        produces="local", field_muls_per_gpu=1 << 16,
                        mem_bytes_per_gpu=1 << 19)
        cost = price_schedule(DGX_A100, GOLDILOCKS, CommSchedule(
            name="local", num_gpus=1, element_bytes=8, ops=(local,)))
        assert cost.exchange_bytes_by_level == {}
        assert cost.exchange_s == 0
        assert cost.compute_s > 0
        assert cost.butterfly_muls == 1 << 16

    def test_untagged_splits_charge_compute_only(self):
        """A program's local ops charge compute and memory, never an
        exchange level."""
        schedule = unintt(1 << 16, 8, 8)
        local = schedule.with_ops(tuple(
            op for op in schedule.ops if isinstance(op, LocalOp)))
        cost = price_schedule(DGX_A100, GOLDILOCKS, local)
        assert cost.exchange_bytes_by_level == {}
        assert cost.butterfly_muls == schedule.total_field_muls() > 0

    def test_multi_gpu_bytes_match_engine_formula(self):
        """The priced program's multi-GPU charge is the engine's
        estimate and the UniNTT closed form."""
        from repro.multigpu import UniNTTEngine
        from repro.sim import SimCluster

        n = 1 << 24
        cost = price_schedule(DGX_A100, BLS12_381_FR, unintt(n, 8, 32))
        engine = UniNTTEngine(SimCluster(BLS12_381_FR, 8))
        assert cost.exchange_bytes_by_level \
            == engine.estimate(DGX_A100, n).exchange_bytes_by_level \
            == {"multi-gpu": alltoall_bytes_per_gpu(n // 8, 8, 32)}

    def test_total_includes_all_levels(self):
        cost = price_schedule(FOUR_NODE_DGX_A100, BLS12_381_FR,
                              unintt(1 << 20, 32, 32, fanouts=(4, 8)))
        assert set(cost.exchange_bytes_by_level) \
            == {"multi-gpu", "multi-node"}
        assert cost.total_s == pytest.approx(
            cost.compute_s + cost.exchange_s)

    def test_unknown_level_rejected(self):
        schedule = unintt(1 << 12, 32, 8, fanouts=(4, 8))
        with pytest.raises(HardwareModelError, match="multi-node"):
            price_schedule(FOUR_NODE_DGX_A100.flattened(), GOLDILOCKS,
                           schedule)

    def test_machine_comparison(self):
        """The same program is cheaper on the faster machine."""
        schedule = unintt(1 << 24, 8, 32)
        slow = price_schedule(DGX1_V100, BLS12_381_FR, schedule).total_s
        fast = price_schedule(DGX_A100, BLS12_381_FR, schedule).total_s
        assert fast < slow

    def test_nested_units_reduce_inner_volume(self):
        """Each level's exchange moves (f-1)/f of every GPU's shard,
        with f that level's own fanout."""
        n, m = 1 << 20, (1 << 20) // 32
        cost = price_schedule(FOUR_NODE_DGX_A100, BLS12_381_FR,
                              unintt(n, 32, 32, fanouts=(4, 8)))
        assert cost.exchange_bytes_by_level == {
            "multi-gpu": m * 7 // 8 * 32, "multi-node": m * 3 // 4 * 32}

    def test_deeper_decomposition_trades_levels(self):
        """A node level moves exchange bytes off the network: each GPU
        sends (N-1)/N of its shard across nodes, not (G-1)/G."""
        n = 1 << 22
        flat = price_schedule(FOUR_NODE_DGX_A100.flattened(), BLS12_381_FR,
                              unintt(n, 32, 32))
        deep = price_schedule(FOUR_NODE_DGX_A100, BLS12_381_FR,
                              unintt(n, 32, 32, fanouts=(4, 8)))
        assert flat.exchange_bytes_by_level == {
            "multi-gpu": alltoall_bytes_per_gpu(n // 32, 32, 32)}
        assert deep.exchange_bytes_by_level["multi-node"] \
            < flat.exchange_bytes_by_level["multi-gpu"]


class TestPriceSchedule:
    def schedule(self, n=1 << 12, gpus=8, eb=8):
        from repro.multigpu.schedule import build_unintt_schedule

        return build_unintt_schedule(n, gpus, eb)

    def test_cost_is_validate_clean(self):
        from repro.hw import price_schedule

        cost = price_schedule(DGX_A100, GOLDILOCKS, self.schedule())
        assert cost.validate() == []
        assert cost.total_s == pytest.approx(cost.compute_s
                                             + cost.exchange_s)

    def test_butterfly_muls_come_from_the_schedule(self):
        from repro.hw import price_schedule

        schedule = self.schedule()
        cost = price_schedule(DGX_A100, GOLDILOCKS, schedule)
        assert cost.butterfly_muls == schedule.total_field_muls()

    def test_per_unit_bytes_match_the_flat_plan(self):
        from repro.hw import price_schedule

        n, gpus, eb = 1 << 24, 8, 32
        schedule = self.schedule(n, gpus, eb)
        cost = price_schedule(DGX_A100, BLS12_381_FR, schedule)
        assert cost.exchange_bytes_by_level["multi-gpu"] \
            == alltoall_bytes_per_gpu(n // gpus, gpus, eb)

    def test_multinode_levels_priced_on_their_own_fabric(self):
        from repro.analysis.synth import synthesize_hierarchical
        from repro.hw import FOUR_NODE_DGX_A100, price_schedule

        schedule = self.schedule(1 << 20, 32, 32)
        hier, _ = synthesize_hierarchical(schedule, 8)
        cost = price_schedule(FOUR_NODE_DGX_A100, BLS12_381_FR, hier)
        assert "multi-node" in cost.exchange_bytes_by_level
        assert cost.validate() == []


class TestScheduleSeconds:
    def test_pipelined_overlap_is_never_slower(self):
        from repro.analysis.passes import fuse_pipeline
        from repro.hw import price_schedule, schedule_seconds
        from repro.multigpu.schedule import build_unintt_schedule

        schedule = build_unintt_schedule(1 << 16, 8, 8)
        fused = fuse_pipeline(schedule)
        sequential = price_schedule(DGX_A100, GOLDILOCKS, fused).total_s
        assert schedule_seconds(DGX_A100, GOLDILOCKS, fused) \
            <= sequential + 1e-15

    def test_unpipelined_schedule_matches_sequential_cost(self):
        from repro.hw import price_schedule, schedule_seconds
        from repro.multigpu.schedule import build_unintt_schedule

        schedule = build_unintt_schedule(1 << 16, 8, 8)
        assert all(not getattr(op, "pipelined", False)
                   for op in schedule.ops)
        sequential = price_schedule(DGX_A100, GOLDILOCKS,
                                    schedule).total_s
        assert schedule_seconds(DGX_A100, GOLDILOCKS, schedule) \
            == pytest.approx(sequential)

    def test_steps_group_pipelined_chains(self):
        from repro.analysis.passes import fuse_pipeline
        from repro.hw import schedule_steps
        from repro.multigpu.schedule import build_unintt_schedule

        schedule = build_unintt_schedule(1 << 12, 8, 8)
        plain = schedule_steps(schedule)
        fused = schedule_steps(fuse_pipeline(schedule))
        assert len(fused) < len(plain)
