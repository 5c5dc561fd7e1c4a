"""Analytic cost model: phases of work -> estimated seconds.

Engines describe their execution as an ordered list of :class:`Phase`
records, each charging per-GPU work to one resource:

* ``field_muls`` — modular multiplications (compute pipe);
* ``mem_bytes`` — global-memory (HBM) traffic;
* ``exchange_bytes`` — bytes through one hierarchy level's fabric.

A phase that charges both compute and memory is costed as the *max* of
the two (GPU kernels overlap arithmetic with memory in flight).  A
:class:`PipelinedGroup` is costed as the max of its members' compute-side
and exchange-side totals — the chunked communication/computation overlap
optimization.  This is the model the paper's "uniform optimization"
claim is evaluated against: the same phase algebra applies at any level,
only the bandwidth/latency constants change.

Honesty contract: the functional simulator in :mod:`repro.sim` produces
byte/op counters for the same algorithms at feasible sizes, and the test
suite asserts the engines' phase profiles (their programs' steps, or a
closed form for the single-GPU and streaming engines) match those
counters exactly, so large-size estimates extrapolate *measured*
structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Sequence, Union

from repro.errors import HardwareModelError
from repro.field.prime_field import PrimeField
from repro.hw.model import LevelSpec, MachineModel

__all__ = ["Phase", "PipelinedGroup", "Step", "CostModel", "CostBreakdown",
           "field_limbs"]


def field_limbs(field: PrimeField) -> int:
    """Number of 64-bit limbs one element of ``field`` occupies."""
    return (field.modulus.bit_length() + 63) // 64


@dataclass(frozen=True)
class Phase:
    """One step of an engine's execution, with per-GPU resource charges.

    ``exchange_pattern`` selects the collective shape: "alltoall"
    (personalized all-to-all; pays topology congestion) or "pairwise"
    (disjoint partner pairs; rides dedicated links on rings/switches).
    """

    name: str
    field_muls: int = 0
    mem_bytes: int = 0
    exchange_bytes: int = 0
    exchange_level: str = "multi-gpu"
    exchange_pattern: str = "alltoall"
    messages: int = 0

    def __post_init__(self) -> None:
        if min(self.field_muls, self.mem_bytes, self.exchange_bytes,
               self.messages) < 0:
            raise HardwareModelError(f"phase {self.name!r}: negative charge")
        if self.exchange_pattern not in ("alltoall", "pairwise"):
            raise HardwareModelError(
                f"phase {self.name!r}: unknown exchange pattern "
                f"{self.exchange_pattern!r}")


@dataclass(frozen=True)
class PipelinedGroup:
    """Phases whose compute and communication overlap chunk-by-chunk."""

    name: str
    phases: tuple[Phase, ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise HardwareModelError(f"group {self.name!r} is empty")


Step = Union[Phase, PipelinedGroup]


@dataclass
class CostBreakdown:
    """Estimated seconds, split by resource and by phase."""

    total_s: float
    compute_s: float
    memory_s: float
    exchange_s: float
    per_phase: dict[str, float] = dataclass_field(default_factory=dict)
    exchange_bytes_by_level: dict[str, int] = dataclass_field(
        default_factory=dict)

    def dominant_resource(self) -> str:
        parts = {"compute": self.compute_s, "memory": self.memory_s,
                 "exchange": self.exchange_s}
        return max(parts, key=parts.get)  # type: ignore[arg-type]


class CostModel:
    """Binds a machine and a field; prices phase lists in seconds."""

    def __init__(self, machine: MachineModel, field: PrimeField):
        self.machine = machine
        self.field = field
        self.limbs = field_limbs(field)
        self.element_bytes = self.limbs * 8
        self._levels = {spec.name: spec
                        for spec in machine.levels(self.element_bytes)}
        self._mul_per_s = machine.gpu.field_mul_per_s(self.limbs)

    # -- per-resource pricing ------------------------------------------------

    def level(self, name: str) -> LevelSpec:
        spec = self._levels.get(name)
        if spec is None:
            raise HardwareModelError(
                f"{self.machine.name} has no level {name!r}; "
                f"known: {sorted(self._levels)}")
        return spec

    def compute_seconds(self, field_muls: int) -> float:
        """Time for ``field_muls`` modular multiplies on one GPU."""
        return field_muls / self._mul_per_s

    def memory_seconds(self, mem_bytes: int) -> float:
        """Time to stream ``mem_bytes`` through one GPU's HBM."""
        return mem_bytes / self.machine.gpu.hbm_bandwidth

    def exchange_seconds(self, exchange_bytes: int, level_name: str,
                         messages: int = 1,
                         pattern: str = "alltoall") -> float:
        """Time to move bytes through one level's fabric."""
        spec = self.level(level_name)
        bandwidth = spec.exchange_bandwidth
        if level_name == "multi-gpu":
            # The multi-GPU fabric's effective rate is topology-dependent.
            interconnect = self.machine.interconnect
            if pattern == "pairwise":
                bandwidth = interconnect.pairwise_bandwidth(
                    self.machine.gpu_count)
            else:
                bandwidth = interconnect.alltoall_bandwidth(
                    self.machine.gpu_count)
        return (exchange_bytes / bandwidth
                + messages * spec.exchange_latency)

    # -- phase pricing ----------------------------------------------------------

    def phase_seconds(self, phase: Phase) -> float:
        """Price one phase: max(compute, memory) + exchange."""
        local = max(self.compute_seconds(phase.field_muls),
                    self.memory_seconds(phase.mem_bytes))
        remote = 0.0
        if phase.exchange_bytes or phase.messages:
            remote = self.exchange_seconds(phase.exchange_bytes,
                                           phase.exchange_level,
                                           phase.messages,
                                           phase.exchange_pattern)
        return local + remote

    def group_seconds(self, group: PipelinedGroup) -> float:
        """Price a pipelined group: max of local-side and exchange-side."""
        local = 0.0
        remote = 0.0
        for phase in group.phases:
            local += max(self.compute_seconds(phase.field_muls),
                         self.memory_seconds(phase.mem_bytes))
            if phase.exchange_bytes or phase.messages:
                remote += self.exchange_seconds(phase.exchange_bytes,
                                                phase.exchange_level,
                                                phase.messages,
                                                phase.exchange_pattern)
        return max(local, remote)

    def estimate(self, steps: Sequence[Step]) -> CostBreakdown:
        """Price an ordered list of phases / pipelined groups."""
        total = 0.0
        compute = memory = exchange = 0.0
        per_phase: dict[str, float] = {}
        bytes_by_level: dict[str, int] = {}

        def account(phase: Phase) -> None:
            nonlocal compute, memory, exchange
            compute += self.compute_seconds(phase.field_muls)
            memory += self.memory_seconds(phase.mem_bytes)
            if phase.exchange_bytes or phase.messages:
                exchange += self.exchange_seconds(
                    phase.exchange_bytes, phase.exchange_level,
                    phase.messages, phase.exchange_pattern)
            if phase.exchange_bytes:
                bytes_by_level[phase.exchange_level] = (
                    bytes_by_level.get(phase.exchange_level, 0)
                    + phase.exchange_bytes)

        for step in steps:
            if isinstance(step, PipelinedGroup):
                seconds = self.group_seconds(step)
                for phase in step.phases:
                    account(phase)
                per_phase[step.name] = seconds
            else:
                seconds = self.phase_seconds(step)
                account(step)
                per_phase[step.name] = per_phase.get(step.name, 0.0) + seconds
            total += seconds
        return CostBreakdown(total_s=total, compute_s=compute,
                             memory_s=memory, exchange_s=exchange,
                             per_phase=per_phase,
                             exchange_bytes_by_level=bytes_by_level)
