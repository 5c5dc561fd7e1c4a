"""The abstract hardware model.

The paper's methodology rests on one abstraction: a hierarchy level is a
set of *units*, each with private storage, joined by an *exchange
fabric* with a bandwidth and a latency.  A warp is 32 lanes joined by
the register shuffle network; a thread block is warps joined by shared
memory; a GPU is SMs joined by global memory (HBM); a node is GPUs
joined by NVLink/PCIe.  Because every level looks the same, one NTT
decomposition and one set of optimizations apply to all of them.

:class:`LevelSpec` is that abstraction; :class:`GpuSpec` packages the
intra-GPU levels plus compute throughput; :class:`MachineModel` adds the
multi-GPU level.  Numbers for real machines live in
:mod:`repro.hw.machines`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import HardwareModelError
from repro.hw.topology import Interconnect

__all__ = ["LevelSpec", "GpuSpec", "MachineModel"]


@dataclass(frozen=True)
class LevelSpec:
    """One level of the abstract hierarchy.

    Attributes
    ----------
    name:
        Level name; matches the ``level`` of the schedule ops charged
        to this level's fabric.
    fanout:
        Number of child units one parent unit contains (e.g. 32 lanes
        per warp).
    unit_capacity:
        Field elements one child unit can hold in its private storage
        (registers per lane, shared memory per block, HBM per GPU).
    exchange_bandwidth:
        Bytes/second a unit can move through this level's fabric.
    exchange_latency:
        Seconds of fixed cost per exchange operation at this level
        (a shuffle instruction, a __syncthreads, a kernel launch, a
        collective start).
    """

    name: str
    fanout: int
    unit_capacity: int
    exchange_bandwidth: float
    exchange_latency: float

    def __post_init__(self) -> None:
        if self.fanout < 1:
            raise HardwareModelError(
                f"level {self.name!r}: fanout must be positive, "
                f"got {self.fanout}")
        if self.unit_capacity < 1:
            raise HardwareModelError(
                f"level {self.name!r}: unit_capacity must be positive")
        if self.exchange_bandwidth <= 0:
            raise HardwareModelError(
                f"level {self.name!r}: exchange bandwidth must be positive")
        if self.exchange_latency < 0:
            raise HardwareModelError(
                f"level {self.name!r}: latency cannot be negative")


@dataclass(frozen=True)
class GpuSpec:
    """A single GPU: compute throughput plus its internal hierarchy.

    Attributes
    ----------
    name:
        Marketing name ("A100-SXM4-80GB").
    word_mul_per_s:
        Sustained 64x64->128-bit integer multiplies per second across
        the whole GPU.  Field-multiplication throughput is derived from
        this and the field's limb count, so one GPU spec serves every
        field.
    hbm_bandwidth:
        Global-memory bandwidth, bytes/second.
    hbm_capacity_bytes:
        Global-memory capacity.
    sm_count / warps_per_sm / lanes_per_warp:
        Execution hierarchy shape.
    smem_per_block_bytes / smem_bandwidth:
        Shared-memory capacity per thread block and aggregate bandwidth.
    shuffle_bandwidth:
        Aggregate register-shuffle bandwidth (warp-level fabric).
    kernel_launch_latency:
        Seconds per kernel launch (the GPU level's exchange latency: a
        global-memory round trip requires a new kernel).
    """

    name: str
    word_mul_per_s: float
    hbm_bandwidth: float
    hbm_capacity_bytes: int
    sm_count: int = 108
    warps_per_sm: int = 8
    lanes_per_warp: int = 32
    smem_per_block_bytes: int = 164 * 1024
    smem_bandwidth: float = 19e12
    shuffle_bandwidth: float = 80e12
    kernel_launch_latency: float = 5e-6

    def __post_init__(self) -> None:
        if self.word_mul_per_s <= 0 or self.hbm_bandwidth <= 0:
            raise HardwareModelError(
                f"{self.name}: throughputs must be positive")

    def field_mul_per_s(self, limbs: int) -> float:
        """Field multiplications/second for a ``limbs``-limb modulus.

        A Montgomery multiply costs ``limbs^2`` word products plus a
        ``limbs * (limbs + 1)`` REDC pass (see
        :meth:`repro.field.MontgomeryContext.mul_word_ops`).
        """
        if limbs < 1:
            raise HardwareModelError(f"limbs must be >= 1, got {limbs}")
        word_ops = limbs * limbs + limbs * (limbs + 1)
        return self.word_mul_per_s / word_ops

    def levels(self, element_bytes: int) -> list[LevelSpec]:
        """The intra-GPU hierarchy, outermost (GPU) first."""
        regs_per_lane = 32  # elements resident in registers per lane
        return [
            LevelSpec(
                name="gpu",
                fanout=self.sm_count,
                unit_capacity=self.smem_per_block_bytes // element_bytes,
                exchange_bandwidth=self.hbm_bandwidth / self.sm_count,
                exchange_latency=self.kernel_launch_latency,
            ),
            LevelSpec(
                name="block",
                fanout=self.warps_per_sm,
                unit_capacity=self.lanes_per_warp * regs_per_lane,
                exchange_bandwidth=self.smem_bandwidth / (
                    self.sm_count * self.warps_per_sm),
                exchange_latency=1e-7,  # a __syncthreads round
            ),
            LevelSpec(
                name="warp",
                fanout=self.lanes_per_warp,
                unit_capacity=regs_per_lane,
                exchange_bandwidth=self.shuffle_bandwidth / (
                    self.sm_count * self.warps_per_sm * self.lanes_per_warp),
                exchange_latency=2e-9,  # a shuffle instruction
            ),
        ]


@dataclass(frozen=True)
class MachineModel:
    """A multi-GPU machine: N identical GPUs on one interconnect."""

    name: str
    gpu: GpuSpec
    gpu_count: int
    interconnect: Interconnect

    def __post_init__(self) -> None:
        if self.gpu_count < 1 or self.gpu_count & (self.gpu_count - 1):
            raise HardwareModelError(
                f"gpu_count must be a power of two, got {self.gpu_count}")

    def with_gpu_count(self, gpu_count: int) -> "MachineModel":
        """The same machine restricted/extended to ``gpu_count`` GPUs."""
        return MachineModel(name=f"{self.name}[{gpu_count}xGPU]",
                            gpu=self.gpu, gpu_count=gpu_count,
                            interconnect=self.interconnect)

    def levels(self, element_bytes: int) -> list[LevelSpec]:
        """The full hierarchy outermost first: multi-GPU, gpu, block, warp."""
        hbm_elems = self.gpu.hbm_capacity_bytes // element_bytes
        multi = LevelSpec(
            name="multi-gpu",
            fanout=self.gpu_count,
            unit_capacity=hbm_elems,
            exchange_bandwidth=self.interconnect.alltoall_bandwidth(
                self.gpu_count),
            exchange_latency=self.interconnect.latency,
        )
        return [multi] + self.gpu.levels(element_bytes)

    def level(self, name: str, element_bytes: int) -> LevelSpec:
        """Look up one hierarchy level by name."""
        for spec in self.levels(element_bytes):
            if spec.name == name:
                return spec
        raise HardwareModelError(f"{self.name} has no level named {name!r}")

    def max_transform_size(self, element_bytes: int) -> int:
        """Largest single NTT that fits (needs ~2x for double buffering)."""
        total = self.gpu_count * self.gpu.hbm_capacity_bytes
        elements = total // (2 * element_bytes)
        if elements < 1:
            return 0
        return 1 << (elements.bit_length() - 1)

    def describe(self) -> str:
        return (f"{self.name}: {self.gpu_count}x {self.gpu.name}, "
                f"{self.interconnect.describe()}")
