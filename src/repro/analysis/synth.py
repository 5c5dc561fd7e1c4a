"""Synthesis of hierarchical communication schedules (SCCL-style).

The flat UniNTT exchange sends every cross-node message straight over
the inter-node network — ``G - 1`` small messages per GPU, all priced
at InfiniBand latency.  The hierarchical decomposition synthesized here
stages instead, the two-step shape of SCCL's hierarchical all-to-all
examples:

1. **stage** (``multi-gpu``): every GPU forwards each cross-node
   message to the *scratch* GPU in its own node that sits on the
   destination's rail (same intra-node index), over NVSwitch.  Messages
   for same-node destinations are delivered directly in this step.
2. **rail** (``multi-node``): each scratch GPU bundles everything it
   holds for its rail peers and sends one aggregated message per remote
   node over the network.

The split is derived *from the transfers alone* — any flat
:class:`ExchangeOp` decomposes, not just the UniNTT one — and the
byte-accounting change is returned as a declared
:class:`~repro.analysis.passes.ScheduleDelta` for the verification
gate.  :func:`enumerate_candidates` is the autotuner's search space:
the hand-written flat schedule, its pass-rewritten form, and (on a
:class:`~repro.hw.multinode.MultiNodeMachine`) the hierarchical
synthesis, every one gated through
:func:`~repro.analysis.passes.verify_rewrite` before it is offered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.passes import (
    ScheduleDelta, run_passes, verify_rewrite,
)
from repro.errors import SchedulePassError
from repro.multigpu.schedule import (
    ALL_ON, CommSchedule, ExchangeOp, ScheduleOp, ShardTransfer,
    UniNTTOptions, build_unintt_schedule, route_via,
)

__all__ = [
    "route_via", "split_exchange", "synthesize_hierarchical",
    "ScheduleCandidate", "enumerate_candidates",
]


def _matrix_ops(counts: list[list[int]]) -> tuple[ShardTransfer, ...]:
    g = len(counts)
    return tuple(
        ShardTransfer(src=src, dst=dst, nbytes=counts[src][dst])
        for src in range(g) for dst in range(g)
        if src != dst and counts[src][dst])


def _received(counts: list[list[int]]) -> tuple[int, ...]:
    g = len(counts)
    return tuple(
        sum(counts[src][dst] for src in range(g) if src != dst)
        for dst in range(g))


def split_exchange(op: ExchangeOp, num_gpus: int,
                   node_size: int) -> tuple[ExchangeOp, ExchangeOp]:
    """Decompose a flat exchange into its stage + rail op pair."""
    g = num_gpus
    stage = [[0] * g for _ in range(g)]
    rail = [[0] * g for _ in range(g)]
    for t in op.transfers:
        via = route_via(t.src, t.dst, node_size)
        if via == t.dst:
            stage[t.src][t.dst] += t.nbytes
        else:
            stage[t.src][via] += t.nbytes
            rail[via][t.dst] += t.nbytes
    staged_tag = f"{op.produces}-staged"
    stage_op = ExchangeOp(
        name=f"{op.name}-stage", consumes=op.consumes,
        produces=staged_tag, transfers=_matrix_ops(stage),
        expected_in_bytes=_received(stage), level="multi-gpu",
        source=op.source, target=op.target)
    rail_op = ExchangeOp(
        name=f"{op.name}-rail", consumes=staged_tag,
        produces=op.produces, transfers=_matrix_ops(rail),
        expected_in_bytes=_received(rail), level="multi-node",
        source=op.source, target=op.target)
    return stage_op, rail_op


def _crosses_nodes(op: ExchangeOp, node_size: int) -> bool:
    return any(t.src // node_size != t.dst // node_size
               for t in op.transfers)


def synthesize_hierarchical(
        schedule: CommSchedule,
        node_size: int) -> tuple[CommSchedule, ScheduleDelta]:
    """Rewrite every cross-node flat exchange into stage + rail ops.

    Returns the hierarchical schedule and the declared byte delta
    relative to ``schedule`` (staging double-handles inter-node data on
    the fast fabric, so multi-gpu bytes shift and multi-node bytes
    appear — the gate re-validates exactly this declaration).
    """
    g = schedule.num_gpus
    if node_size <= 1 or node_size >= g or g % node_size:
        raise SchedulePassError(
            f"node_size {node_size} cannot stage a {g}-GPU schedule "
            f"(need a proper divisor of the GPU count)")
    ops: list[ScheduleOp] = []
    for op in schedule.ops:
        if (isinstance(op, ExchangeOp) and op.level == "multi-gpu"
                and _crosses_nodes(op, node_size)):
            ops.extend(split_exchange(op, g, node_size))
        else:
            ops.append(op)
    hier = CommSchedule(
        name=f"{schedule.name}@hier[ns={node_size}]", num_gpus=g,
        element_bytes=schedule.element_bytes, ops=tuple(ops))

    base_bytes = schedule.bytes_by_level()
    hier_bytes = hier.bytes_by_level()
    levels = sorted(set(base_bytes) | set(hier_bytes))
    delta = ScheduleDelta(
        bytes_by_level=tuple(
            (lvl, hier_bytes.get(lvl, 0) - base_bytes.get(lvl, 0))
            for lvl in levels
            if hier_bytes.get(lvl, 0) != base_bytes.get(lvl, 0)),
        note=f"per-node scratch staging, {g // node_size} nodes of "
             f"{node_size}")
    return hier, delta


@dataclass(frozen=True)
class ScheduleCandidate:
    """One entry in the autotuner's schedule search space.

    ``machine`` is the hardware view the candidate must be priced
    against: the flat candidates of a multi-node cluster price on its
    :meth:`~repro.hw.multinode.MultiNodeMachine.flattened` form (all
    GPUs behind the network, the NCCL reality), the hierarchical one on
    the cluster itself so stage and rail ops hit their own fabrics.
    """

    name: str
    schedule: CommSchedule
    base: CommSchedule
    delta: Optional[ScheduleDelta]
    machine: object
    synthesized: bool


def enumerate_candidates(machine, field, n: int,
                         options: UniNTTOptions = ALL_ON,
                         ) -> list[ScheduleCandidate]:
    """Build and gate every schedule candidate for one topology.

    Raises :class:`SchedulePassError` if any product of the rewriter
    fails its verification gate — a candidate that reaches the caller
    is guaranteed verifier-clean with a validated accounting delta.
    """
    from repro.hw.cost import field_limbs

    eb = field_limbs(field) * 8
    is_cluster = hasattr(machine, "node_count")
    total = machine.total_gpus if is_cluster else machine.gpu_count
    flat_machine = machine.flattened() if is_cluster else machine

    base = build_unintt_schedule(n, total, eb, options)
    candidates = [ScheduleCandidate(
        name=base.name, schedule=base, base=base, delta=None,
        machine=flat_machine, synthesized=False)]

    rewritten, _ = run_passes(base, machine=flat_machine, field=field)
    candidates.append(ScheduleCandidate(
        name=f"{base.name}+passes", schedule=rewritten, base=base,
        delta=None, machine=flat_machine, synthesized=True))

    if is_cluster:
        hier, delta = synthesize_hierarchical(base, machine.gpu_count)
        hier, _ = run_passes(hier, machine=machine, field=field)
        gate = verify_rewrite(base, hier, machine=machine, field=field,
                              delta=delta)
        if gate:
            raise SchedulePassError(
                f"hierarchical synthesis for {machine.name!r} failed "
                f"its gate: {gate[0].format()}")
        candidates.append(ScheduleCandidate(
            name=hier.name, schedule=hier, base=base, delta=delta,
            machine=machine, synthesized=True))
    return candidates
