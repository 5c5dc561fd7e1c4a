"""Tests for the abstract hardware model."""

import pytest

from repro.errors import HardwareModelError
from repro.hw import (
    A100_GPU, DGX_A100, GpuSpec, LevelSpec, MachineModel, nvswitch,
)


class TestLevelSpec:
    def test_valid(self):
        spec = LevelSpec(name="warp", fanout=32, unit_capacity=32,
                         exchange_bandwidth=1e12, exchange_latency=1e-9)
        assert spec.fanout == 32

    @pytest.mark.parametrize("kwargs,match", [
        (dict(fanout=0), "fanout"),
        (dict(unit_capacity=0), "unit_capacity"),
        (dict(exchange_bandwidth=0), "bandwidth"),
        (dict(exchange_latency=-1), "latency"),
    ])
    def test_validation(self, kwargs, match):
        base = dict(name="x", fanout=2, unit_capacity=8,
                    exchange_bandwidth=1e9, exchange_latency=0)
        base.update(kwargs)
        with pytest.raises(HardwareModelError, match=match):
            LevelSpec(**base)


class TestGpuSpec:
    def test_field_mul_throughput_scales_with_limbs(self):
        one_limb = A100_GPU.field_mul_per_s(1)
        four_limb = A100_GPU.field_mul_per_s(4)
        assert one_limb > four_limb
        # 1 limb: 1 + 2 = 3 word ops; 4 limbs: 16 + 20 = 36.
        assert one_limb / four_limb == pytest.approx(36 / 3)

    def test_field_mul_limb_validation(self):
        with pytest.raises(HardwareModelError, match="limbs"):
            A100_GPU.field_mul_per_s(0)

    def test_levels_structure(self):
        levels = A100_GPU.levels(element_bytes=32)
        assert [lvl.name for lvl in levels] == ["gpu", "block", "warp"]
        gpu, block, warp = levels
        assert gpu.fanout == A100_GPU.sm_count
        assert warp.fanout == 32
        # smaller levels have faster fabrics but less capacity
        assert warp.exchange_latency < block.exchange_latency \
            < gpu.exchange_latency
        assert warp.unit_capacity < gpu.unit_capacity

    def test_throughput_validation(self):
        with pytest.raises(HardwareModelError, match="positive"):
            GpuSpec(name="bad", word_mul_per_s=0, hbm_bandwidth=1,
                    hbm_capacity_bytes=1)


class TestMachineModel:
    def test_gpu_count_power_of_two(self):
        with pytest.raises(HardwareModelError, match="power of two"):
            MachineModel(name="x", gpu=A100_GPU, gpu_count=6,
                         interconnect=nvswitch())

    def test_levels_outermost_first(self):
        levels = DGX_A100.levels(element_bytes=32)
        assert [lvl.name for lvl in levels] == ["multi-gpu", "gpu", "block",
                                                "warp"]
        assert levels[0].fanout == 8

    def test_level_lookup(self):
        spec = DGX_A100.level("warp", element_bytes=32)
        assert spec.name == "warp"
        with pytest.raises(HardwareModelError, match="no level"):
            DGX_A100.level("nope", element_bytes=32)

    def test_with_gpu_count(self):
        half = DGX_A100.with_gpu_count(4)
        assert half.gpu_count == 4
        assert half.gpu is DGX_A100.gpu
        assert "4xGPU" in half.name

    def test_max_transform_size(self):
        n = DGX_A100.max_transform_size(element_bytes=32)
        assert n & (n - 1) == 0
        total_elems = 8 * A100_GPU.hbm_capacity_bytes // 64
        assert n <= total_elems

    def test_describe(self):
        text = DGX_A100.describe()
        assert "DGX-A100" in text
        assert "8x" in text
