"""Peephole rewrite passes over :class:`CommSchedule` op-graphs.

PR 2 made schedules *checkable*; this module makes them *rewritable*.
Each pass is a pure function ``CommSchedule -> CommSchedule`` that
performs one SCCL-style peephole rewrite:

* ``merge-local-ops`` — fuse back-to-back :class:`LocalOp`\\ s whose
  dataflow tags chain (B consumes exactly what A produces and nobody
  else reads A's output) and that run at the same recursion level
  (fanout and twiddle layout), summing their multiplication and memory
  charges.  The kernel-fusion analogue at the schedule level.
* ``dead-op-elimination`` — delete ops that move no bytes and charge no
  work (empty exchanges, zero-charge local passes, identity pairwise
  stages), rewiring downstream consumers across the gap.
* ``pipeline-fusion`` — mark a collective whose output is consumed by
  the *next* op as ``pipelined``, the recv-copy-send / recv-reduce-send
  chaining SCCL's ``rcs`` pass performs.  Scheduling metadata only: the
  cost model prices the chain as ``max(local, remote)`` instead of a
  sum, but no bytes or dataflow change.

Every rewrite must survive the **verification gate**
(:func:`verify_rewrite`): zero :func:`verify_schedule` findings, and
``bytes_by_level()`` / ``total_field_muls()`` preserved exactly — or
changed by a declared :class:`ScheduleDelta`, which
:func:`repro.analysis.plancheck.check_cost` re-validates against the
priced :class:`~repro.hw.plancost.PlanCost`.  :func:`run_passes`
applies the gate after *every* pass and raises
:class:`~repro.errors.SchedulePassError` on the first violation, so a
buggy rewrite can never silently reach the autotuner.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.analysis.findings import Check, Finding
from repro.analysis.plancheck import verify_schedule
from repro.errors import SchedulePassError
from repro.multigpu.schedule import (
    CommSchedule, ExchangeOp, LocalOp, PairwiseOp, ScheduleOp,
)

__all__ = [
    "CHECKS", "ScheduleDelta", "SchedulePass", "PassReport",
    "merge_local_ops", "eliminate_dead_ops", "fuse_pipeline",
    "MERGE_LOCAL_OPS", "DEAD_OP_ELIMINATION", "PIPELINE_FUSION",
    "DEFAULT_PASSES", "verify_rewrite", "run_passes",
]

CHECKS = (
    Check("plan.rewrite-differs", 1,
          "a rewritten/synthesized schedule changed bytes_by_level() or "
          "total_field_muls() without declaring the delta"),
)


@dataclass(frozen=True)
class ScheduleDelta:
    """Declared accounting change of a rewrite, relative to its base.

    ``bytes_by_level`` maps level name to a *signed* byte delta
    (hierarchical staging legitimately adds multi-node bytes while
    shaving multi-gpu ones); ``field_muls`` declares any change in
    total multiplications.  A rewrite with no delta must preserve both
    metrics bit-for-bit.
    """

    bytes_by_level: tuple[tuple[str, int], ...] = ()
    field_muls: int = 0
    note: str = ""

    def bytes_dict(self) -> dict[str, int]:
        return dict(self.bytes_by_level)


@dataclass(frozen=True)
class SchedulePass:
    """One registered peephole rewrite."""

    name: str
    rewrite: Callable[[CommSchedule], CommSchedule]
    description: str

    def __call__(self, schedule: CommSchedule) -> CommSchedule:
        return self.rewrite(schedule)


@dataclass(frozen=True)
class PassReport:
    """What :func:`run_passes` did: (pass name, ops before, ops after)."""

    applied: tuple[tuple[str, int, int], ...] = ()

    def changed(self) -> list[str]:
        return [name for name, before, after in self.applied
                if before != after]


def _tag_consumers(ops: list[ScheduleOp], tag: str, start: int) -> int:
    """How many ops at index >= ``start`` consume ``tag``."""
    return sum(1 for op in ops[start:] if op.consumes == tag)


def merge_local_ops(schedule: CommSchedule) -> CommSchedule:
    """Fuse adjacent LocalOps whose dataflow tags chain exclusively."""
    ops = list(schedule.ops)
    out: list[ScheduleOp] = []
    i = 0
    while i < len(ops):
        op = ops[i]
        while (isinstance(op, LocalOp) and i + 1 < len(ops)
               and isinstance(ops[i + 1], LocalOp)
               and ops[i + 1].consumes == op.produces
               and ops[i + 1].level == op.level
               and (ops[i + 1].fanout, ops[i + 1].layout)
               == (op.fanout, op.layout)
               and _tag_consumers(ops, op.produces, i + 2) == 0):
            nxt = ops[i + 1]
            op = replace(
                op, name=f"{op.name}+{nxt.name}", produces=nxt.produces,
                field_muls_per_gpu=(op.field_muls_per_gpu
                                    + nxt.field_muls_per_gpu),
                mem_bytes_per_gpu=(op.mem_bytes_per_gpu
                                   + nxt.mem_bytes_per_gpu),
                pipelined=nxt.pipelined)
            i += 1
        out.append(op)
        i += 1
    return schedule.with_ops(tuple(out))


def _is_dead(op: ScheduleOp) -> bool:
    if isinstance(op, LocalOp):
        return op.field_muls_per_gpu == 0 and op.mem_bytes_per_gpu == 0
    if isinstance(op, ExchangeOp):
        return not op.transfers and not any(op.expected_in_bytes)
    if isinstance(op, PairwiseOp):
        return (op.bytes_per_gpu == 0
                or all(i == j for i, j in enumerate(op.partner_of)))
    return False


def eliminate_dead_ops(schedule: CommSchedule) -> CommSchedule:
    """Drop ops that charge nothing and move nothing, rewiring tags."""
    ops = list(schedule.ops)
    changed = True
    while changed:
        changed = False
        for i, op in enumerate(ops):
            if not _is_dead(op):
                continue
            del ops[i]
            if op.consumes != op.produces:
                for j in range(i, len(ops)):
                    if ops[j].consumes == op.produces:
                        ops[j] = replace(ops[j], consumes=op.consumes)
            changed = True
            break
    return schedule.with_ops(tuple(ops))


def fuse_pipeline(schedule: CommSchedule) -> CommSchedule:
    """Mark collectives feeding the very next op as pipelined (rcs)."""
    ops = list(schedule.ops)
    for i in range(len(ops) - 1):
        op = ops[i]
        if (isinstance(op, (ExchangeOp, PairwiseOp))
                and not op.pipelined
                and op.total_bytes() > 0
                and ops[i + 1].consumes == op.produces):
            ops[i] = replace(op, pipelined=True)
    return schedule.with_ops(tuple(ops))


MERGE_LOCAL_OPS = SchedulePass(
    "merge-local-ops", merge_local_ops,
    "fuse back-to-back LocalOps with chained dataflow tags")
DEAD_OP_ELIMINATION = SchedulePass(
    "dead-op-elimination", eliminate_dead_ops,
    "drop ops that move no bytes and charge no work")
PIPELINE_FUSION = SchedulePass(
    "pipeline-fusion", fuse_pipeline,
    "overlap a collective with its consumer (recv-copy-send)")

#: The pass pipeline :func:`run_passes` applies by default, in order.
DEFAULT_PASSES: tuple[SchedulePass, ...] = (
    MERGE_LOCAL_OPS, DEAD_OP_ELIMINATION, PIPELINE_FUSION,
)


def verify_rewrite(base: CommSchedule, candidate: CommSchedule,
                   machine=None, field=None,
                   delta: Optional[ScheduleDelta] = None) -> list[Finding]:
    """The mandatory gate every rewritten/synthesized schedule must pass.

    Returns findings (empty means the candidate is admissible):

    * every :func:`verify_schedule` finding on the candidate itself;
    * ``plan.rewrite-differs`` if ``bytes_by_level()`` or
      ``total_field_muls()`` departs from ``base`` plus the declared
      ``delta`` (no delta means bit-for-bit preservation);
    * with ``machine`` and ``field``, ``plan.cost-invariant`` findings
      if pricing the candidate with
      :func:`~repro.hw.plancost.price_schedule` violates
      :meth:`~repro.hw.plancost.PlanCost.validate`.
    """
    findings = verify_schedule(candidate, machine=machine)
    where = f"{base.name} -> {candidate.name}"

    expected_bytes = dict(base.bytes_by_level())
    expected_muls = base.total_field_muls()
    if delta is not None:
        for level, nbytes in delta.bytes_by_level:
            expected_bytes[level] = expected_bytes.get(level, 0) + nbytes
        expected_muls += delta.field_muls
    expected_bytes = dict(sorted(
        (lvl, b) for lvl, b in expected_bytes.items() if b))

    actual_bytes = candidate.bytes_by_level()
    if actual_bytes != expected_bytes:
        findings.append(Finding(
            "plan.rewrite-differs",
            f"bytes_by_level changed: {actual_bytes} != expected "
            f"{expected_bytes} (base {'+ declared delta' if delta else 'with no declared delta'})",
            where))
    actual_muls = candidate.total_field_muls()
    if actual_muls != expected_muls:
        findings.append(Finding(
            "plan.rewrite-differs",
            f"total_field_muls changed: {actual_muls} != expected "
            f"{expected_muls}", where))

    if machine is not None and field is not None:
        from repro.hw.plancost import price_schedule
        cost = price_schedule(machine, field, candidate)
        findings.extend(
            Finding("plan.cost-invariant", problem, where)
            for problem in cost.validate())
    return findings


def run_passes(schedule: CommSchedule,
               passes: tuple[SchedulePass, ...] = DEFAULT_PASSES,
               machine=None, field=None) -> tuple[CommSchedule, PassReport]:
    """Apply ``passes`` in order, gating after each one.

    Peephole passes must preserve accounting exactly (they declare no
    delta); the first pass whose output fails :func:`verify_rewrite`
    aborts the pipeline with :class:`SchedulePassError`.
    """
    applied: list[tuple[str, int, int]] = []
    current = schedule
    for schedule_pass in passes:
        candidate = schedule_pass(current)
        findings = verify_rewrite(current, candidate,
                                  machine=machine, field=field)
        if findings:
            raise SchedulePassError(
                f"pass {schedule_pass.name!r} broke {current.name!r}: "
                f"{findings[0].format()}")
        applied.append((schedule_pass.name, len(current.ops),
                        len(candidate.ops)))
        current = candidate
    return current, PassReport(applied=tuple(applied))
