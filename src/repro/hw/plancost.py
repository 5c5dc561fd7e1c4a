"""Pricing a UniNTT program: the cost model's view of a schedule.

A transform is priced from its program, the same
:class:`~repro.multigpu.schedule.CommSchedule` the engines execute:
:func:`schedule_steps` turns its ops into cost-model steps (the
engines' ``estimate``), :func:`schedule_seconds` prices them with
overlap credit (what the autotuner ranks by) and
:func:`price_schedule` prices them sequentially, level by level, as a
:class:`PlanCost` the plan verifier validates.  Every byte charged
here is a byte the program's ops move, so the functional simulator's
trace reproduces it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

from repro.field.prime_field import PrimeField
from repro.hw.cost import CostModel
from repro.hw.model import MachineModel

__all__ = ["PlanCost", "price_schedule", "schedule_steps",
           "schedule_seconds"]


@dataclass
class PlanCost:
    """Per-level charges and the modeled total for one transform."""

    total_s: float
    compute_s: float
    exchange_s_by_level: dict[str, float] = dataclass_field(
        default_factory=dict)
    exchange_bytes_by_level: dict[str, int] = dataclass_field(
        default_factory=dict)
    butterfly_muls: int = 0

    @property
    def exchange_s(self) -> float:
        return sum(self.exchange_s_by_level.values())

    def validate(self) -> list[str]:
        """Check the cost-model invariants; return the violations.

        A healthy cost is made of finite, non-negative charges whose
        total is the sum of compute and exchange time.  A NaN seeping
        out of a bandwidth table, a negative byte count from an
        accounting bug, or a total that drifted from its parts all
        invalidate every comparison built on top — so the plan verifier
        runs this on every priced configuration.  An empty list means
        the cost is sound.
        """
        problems: list[str] = []

        def bad_number(value: float) -> bool:
            return not math.isfinite(value) or value < 0

        if bad_number(self.total_s):
            problems.append(f"total_s is {self.total_s!r}")
        if bad_number(self.compute_s):
            problems.append(f"compute_s is {self.compute_s!r}")
        for name in sorted(self.exchange_s_by_level):
            if bad_number(self.exchange_s_by_level[name]):
                problems.append(
                    f"exchange_s_by_level[{name!r}] is "
                    f"{self.exchange_s_by_level[name]!r}")
        for name in sorted(self.exchange_bytes_by_level):
            if self.exchange_bytes_by_level[name] < 0:
                problems.append(
                    f"exchange_bytes_by_level[{name!r}] is "
                    f"{self.exchange_bytes_by_level[name]}")
        if self.butterfly_muls < 0:
            problems.append(f"butterfly_muls is {self.butterfly_muls}")
        if not problems:
            parts = self.compute_s + self.exchange_s
            if not math.isclose(self.total_s, parts,
                                rel_tol=1e-9, abs_tol=1e-15):
                problems.append(
                    f"total_s {self.total_s!r} != compute_s + exchange_s "
                    f"{parts!r}")
        return problems


def _op_phase(op, num_gpus: int):
    """One schedule op as a per-GPU :class:`~repro.hw.cost.Phase`.

    Collectives charge the *critical-path* GPU: the largest of any
    GPU's sent or received bytes (all units move concurrently), with
    one latency hit per message on the busiest sender.
    """
    from repro.hw.cost import Phase
    from repro.multigpu.schedule import ExchangeOp, LocalOp, PairwiseOp

    if isinstance(op, LocalOp):
        return Phase(name=op.name, field_muls=op.field_muls_per_gpu,
                     mem_bytes=op.mem_bytes_per_gpu)
    if isinstance(op, ExchangeOp):
        per_unit = 0
        msgs = 0
        if op.transfers:
            per_unit = max(max(op.sent_bytes_per_gpu(num_gpus)),
                           max(op.received_bytes_per_gpu(num_gpus)))
            out_degree: dict[int, int] = {}
            for t in op.transfers:
                out_degree[t.src] = out_degree.get(t.src, 0) + 1
            msgs = max(out_degree.values())
        return Phase(name=op.name, exchange_bytes=per_unit,
                     exchange_level=op.level,
                     exchange_pattern="alltoall", messages=msgs)
    assert isinstance(op, PairwiseOp)
    active = any(i != j for i, j in enumerate(op.partner_of))
    return Phase(name=op.name,
                 exchange_bytes=op.bytes_per_gpu if active else 0,
                 exchange_level=op.level, exchange_pattern="pairwise",
                 messages=1 if active else 0)


def schedule_steps(schedule) -> list:
    """A schedule as an ordered cost-model step list.

    Runs of ops chained by the ``pipelined`` flag (set by the
    pipeline-fusion pass) collapse into one
    :class:`~repro.hw.cost.PipelinedGroup`, priced as
    ``max(local side, exchange side)`` — the recv-copy-send overlap.
    """
    from repro.hw.cost import PipelinedGroup

    steps: list = []
    ops = list(schedule.ops)
    i = 0
    while i < len(ops):
        op = ops[i]
        phases = [_op_phase(op, schedule.num_gpus)]
        while getattr(op, "pipelined", False) and i + 1 < len(ops):
            i += 1
            op = ops[i]
            phases.append(_op_phase(op, schedule.num_gpus))
        if len(phases) > 1:
            steps.append(PipelinedGroup(
                name="+".join(p.name for p in phases),
                phases=tuple(phases)))
        else:
            steps.append(phases[0])
        i += 1
    return steps


def price_schedule(machine: MachineModel, field: PrimeField,
                   schedule) -> PlanCost:
    """Price one execution of a symbolic ``CommSchedule``.

    Sequential pricing — no overlap credit — so the result satisfies
    the :meth:`PlanCost.validate` identity ``total = compute +
    exchange`` and compares candidates level by level.  Overlap-aware
    wall-clock lives in :func:`schedule_seconds`.
    """
    from repro.multigpu.schedule import LocalOp

    model = CostModel(machine, field)
    compute = 0.0
    exchange_seconds: dict[str, float] = {}
    exchange_bytes: dict[str, int] = {}
    for op in schedule.ops:
        phase = _op_phase(op, schedule.num_gpus)
        if isinstance(op, LocalOp):
            compute += max(model.compute_seconds(phase.field_muls),
                           model.memory_seconds(phase.mem_bytes))
            continue
        if phase.exchange_bytes or phase.messages:
            exchange_seconds[op.level] = (
                exchange_seconds.get(op.level, 0.0)
                + model.exchange_seconds(phase.exchange_bytes, op.level,
                                         phase.messages,
                                         phase.exchange_pattern))
            exchange_bytes[op.level] = (
                exchange_bytes.get(op.level, 0) + phase.exchange_bytes)
    total = compute + sum(exchange_seconds.values())
    return PlanCost(total_s=total, compute_s=compute,
                    exchange_s_by_level=exchange_seconds,
                    exchange_bytes_by_level=exchange_bytes,
                    butterfly_muls=schedule.total_field_muls())


def schedule_seconds(machine: MachineModel, field: PrimeField,
                     schedule) -> float:
    """Overlap-aware modeled wall-clock for one schedule execution.

    Unlike :func:`price_schedule`, pipelined chains are credited with
    their communication/computation overlap, so this is the number the
    autotuner ranks candidates by.
    """
    model = CostModel(machine, field)
    return model.estimate(schedule_steps(schedule)).total_s
