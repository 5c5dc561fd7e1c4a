"""Schedule interpreter: the executor of every UniNTT run.

A :class:`~repro.multigpu.schedule.CommSchedule` of the **unintt
family** is the program of a UniNTT transform:
:func:`~repro.multigpu.schedule.build_unintt_schedule` writes it once
(forward or inverse, with or without a coset, over one level or over
an intra-node and an inter-node level), and the pass framework and
:mod:`repro.analysis.synth` rewrite it.  :func:`execute_schedule` is
the one executor.  Both UniNTT engines run their memoized, verified
program (:func:`unintt_program`) through it and price its steps
(:func:`unintt_steps`), and :func:`interpret_schedule` stages a host
vector and runs any verified one-level forward schedule of the family,
rewritten or not.  The packed polynomial path charges the same program
op by op without moving data.

The executor runs:

* local kernels from one table keyed by op name — ``coset``,
  ``local-ntt``, ``twiddle-pass``, ``cross-ntt``, each with an
  ``inv-`` twin and an ``inter-`` form for the inter-node level — each
  reading its level's fanout and twiddle layout from the op, with
  merged names (``a+b`` from the merge pass) split and applied in
  order, then charged once per :class:`LocalOp` through
  :meth:`~repro.sim.cluster.SimCluster.charge_local` with the live
  shards, so an injected compute fault corrupts real data;
* exchanges by the relayout each :class:`ExchangeOp` carries,
  executed by :func:`~repro.multigpu.base.redistribute` (the
  inter-node level's is rail-aligned by its layouts);
* synthesized ``*-stage`` / ``*-rail`` pairs, executed as two chained
  ``all_to_all`` collectives with the data genuinely forwarded through
  the per-node scratch GPUs (:func:`~repro.multigpu.schedule.route_via`).
  Both kinds run the same memoized
  :func:`~repro.multigpu.base.relayout_plan` of the layout pair.

Anything else — or a schedule that fails :func:`verify_schedule` —
raises :class:`~repro.errors.SchedulePassError` before touching data.
"""

from __future__ import annotations

from functools import lru_cache

from repro.analysis.plancheck import verify_schedule
from repro.errors import PartitionError, SchedulePassError
from repro.hw.cost import Step
from repro.hw.plancost import schedule_steps
from repro.multigpu.base import (
    local_step, redistribute, relayout_plan, twiddle_table,
)
from repro.multigpu.layout import (
    BlockLayout, CyclicLayout, Layout, SpectralLayout, collect, distribute,
)
from repro.multigpu.schedule import (
    CommSchedule, ExchangeOp, LocalOp, UniNTTOptions, build_unintt_schedule,
    route_via,
)
from repro.ntt.batch import StepTable
from repro.sim.cluster import SimCluster

__all__ = ["execute_schedule", "interpret_schedule", "unintt_program",
           "unintt_steps"]


def _step_root(cluster: SimCluster, inverse: bool) -> tuple[int, int, int]:
    """(n, shard size M, the n-th root of unity or its inverse)."""
    m = len(cluster.gpus[0].shard)
    n = m * cluster.gpu_count
    root = cluster.field.root_of_unity(n)
    return n, m, cluster.field.inv(root) if inverse else root


def _twiddles(cluster: SimCluster, op: LocalOp,
              inverse: bool) -> StepTable:
    """The twiddle of the op's level, ``w^(s * k)`` for unit ``s``.

    Without a layout the units are the GPUs modulo the fanout and
    ``k`` the local slot (right after the local transforms); with one,
    ``s * n/fanout + k`` is the global index the layout stores.
    """
    n, m, root = _step_root(cluster, inverse)
    f = op.fanout
    if op.layout is None:
        return twiddle_table(
            cluster.field, pow(root, n // (m * f), cluster.field.modulus),
            [s % f for s in range(cluster.gpu_count)], m)
    return twiddle_table(cluster.field, root, range(f), n // f,
                         layout=op.layout)


def _coset(cluster: SimCluster, op: LocalOp, inverse: bool,
           shift: int | None, fused: bool) -> None:
    """``x[j] *= shift^(+-j)`` over the cyclic layout: on GPU ``s``,
    ``shift^s`` times the local geometric series of ``shift^G``."""
    field = cluster.field
    n = len(cluster.gpus[0].shard) * cluster.gpu_count
    local_step(cluster, post=twiddle_table(
        field, field.inv(shift) if inverse else shift, (1,), n,
        layout=CyclicLayout(n=n, gpu_count=cluster.gpu_count)))


def _local_ntt(cluster: SimCluster, op: LocalOp, inverse: bool,
               shift: int | None, fused: bool) -> None:
    """The M-point transforms; the first level's twiddle rides them
    when ``fused`` (after them forward, before them inverse, which
    also scales 1/M)."""
    n, m, root = _step_root(cluster, inverse)
    p = cluster.field.modulus
    twiddles = _twiddles(cluster, op, inverse) if fused else None
    if inverse:
        local_step(cluster, m, pow(root, n // m, p), pre=twiddles,
                   scale=cluster.field.inv(m % p))
    else:
        local_step(cluster, m, pow(root, n // m, p), post=twiddles)


def _twiddle_pass(cluster: SimCluster, op: LocalOp, inverse: bool,
                  shift: int | None, fused: bool) -> None:
    """A level's twiddle as its own step."""
    local_step(cluster, post=_twiddles(cluster, op, inverse))


def _cross_ntt(cluster: SimCluster, op: LocalOp, inverse: bool,
               shift: int | None, fused: bool) -> None:
    """Every GPU's contiguous fanout-point transforms (inverse:
    1/fanout)."""
    n, _, root = _step_root(cluster, inverse)
    f = op.fanout
    p = cluster.field.modulus
    local_step(cluster, f, pow(root, n // f, p),
               scale=cluster.field.inv(f % p) if inverse else None)


#: Local kernels by op name ``[inv-][inter-]kernel``: ``inv-`` runs the
#: inverse twin; each kernel reads its level from the op.
_KERNELS = {
    "coset": _coset,
    "local-ntt": _local_ntt,
    "twiddle-pass": _twiddle_pass,
    "cross-ntt": _cross_ntt,
}


def _kernel_name(part: str) -> str:
    return part.removeprefix("inv-").removeprefix("inter-")


def _require_verified(schedule: CommSchedule) -> None:
    findings = verify_schedule(schedule)
    if findings:
        raise SchedulePassError(
            f"refusing to interpret {schedule.name!r}: "
            f"{findings[0].format()}")


@lru_cache(maxsize=64)
def unintt_program(n: int, gpu_count: int, element_bytes: int,
                   options: UniNTTOptions, tile: int, inverse: bool,
                   coset: bool, nodes: int = 1) -> CommSchedule:
    """The verified program of one UniNTT run, overlap marks included.

    Memoized (bounded LRU) on the run's full identity — n, G, element
    size, options, tile, direction, coset and node count — so
    :func:`verify_schedule` runs once per key; a finding raises
    :class:`SchedulePassError`.
    """
    schedule = build_unintt_schedule(
        n, gpu_count, element_bytes, options, tile, inverse=inverse,
        coset=coset, nodes=nodes, pipelined=True)
    _require_verified(schedule)
    return schedule


@lru_cache(maxsize=256)
def unintt_steps(n: int, gpu_count: int, element_bytes: int,
                 options: UniNTTOptions, tile: int, inverse: bool,
                 nodes: int = 1) -> tuple[Step, ...]:
    """:func:`~repro.hw.plancost.schedule_steps` of the plain program
    :func:`unintt_program` returns, built and verified the same way
    but memoized apart, so pricing sweeps (the tile autotuner prices
    every tile) never evict the programs transforms execute."""
    return tuple(schedule_steps(unintt_program.__wrapped__(
        n, gpu_count, element_bytes, options, tile, inverse, False,
        nodes)))


def _base_exchange_name(op: ExchangeOp) -> str:
    for suffix in ("-stage", "-rail"):
        if op.name.endswith(suffix):
            return op.name[:-len(suffix)]
    return op.name


def _staged_redistribute(cluster: SimCluster, source: Layout,
                         target: Layout, base_detail: str) -> None:
    """Two-step relayout through per-node scratch GPUs.

    Mirrors :func:`~repro.analysis.synth.split_exchange` exactly: the
    stage collective keeps every message inside its node (direct
    deliveries plus rail forwarding), the rail collective carries only
    inter-node bundles.  Values genuinely transit the scratch GPU.
    """
    ns = cluster.node_size
    if ns is None:
        raise SchedulePassError(
            f"{base_detail}: hierarchical schedule needs a cluster with "
            f"node_size set")
    g = cluster.gpu_count

    # Per-(src, dst) messages in destination-slot order — the same plan
    # redistribute() executes, so reassembly below is deterministic.
    plan = relayout_plan(source, target)
    msgs = plan.outboxes([gpu.shard for gpu in cluster.gpus])

    # Stage: deliver same-node data directly, forward cross-node data
    # to the scratch GPU on the destination's rail.  Final-dst-major
    # packing, so receivers can split buffers back into sections.
    out1: list[list[list[int]]] = [[[] for _ in range(g)]
                                   for _ in range(g)]
    for src in range(g):
        for dst in range(g):
            out1[src][route_via(src, dst, ns)].extend(msgs[src][dst])
    in1 = cluster.all_to_all(out1, detail=f"{base_detail}-stage")

    held: dict[tuple[int, int, int], list[int]] = {}
    for holder in range(g):
        for src in range(g):
            buf = in1[holder][src]
            pos = 0
            for dst in range(g):
                if route_via(src, dst, ns) != holder:
                    continue
                count = len(msgs[src][dst])
                if count:
                    held[(holder, dst, src)] = buf[pos:pos + count]
                    pos += count

    # Rail: one aggregated inter-node message per (scratch, dst) pair,
    # origin-major sections.
    out2: list[list[list[int]]] = [[[] for _ in range(g)]
                                   for _ in range(g)]
    for holder in range(g):
        for dst in range(g):
            if dst == holder:
                continue
            for src in range(g):
                chunk = held.get((holder, dst, src))
                if chunk and route_via(src, dst, ns) == holder:
                    out2[holder][dst].extend(chunk)
    in2 = cluster.all_to_all(out2, detail=f"{base_detail}-rail")

    # Reassemble each destination shard from per-origin FIFO queues.
    for dst in range(g):
        fifo: list[list[int]] = [[] for _ in range(g)]
        cursors: dict[int, int] = {}
        for src in range(g):
            holder = route_via(src, dst, ns)
            if holder == dst:
                fifo[src] = list(held.get((dst, dst, src), ()))
            else:
                buf = in2[dst][holder]
                pos = cursors.get(holder, 0)
                count = len(msgs[src][dst])
                fifo[src] = buf[pos:pos + count]
                cursors[holder] = pos + count
        cluster.gpus[dst].shard = plan.assemble(dst, fifo)


def execute_schedule(schedule: CommSchedule, cluster: SimCluster, *,
                     coset_shift: int | None = None) -> None:
    """Run a unintt-family schedule on the cluster's current shards.

    Each :class:`LocalOp` runs its kernel(s) and is charged once with
    the live shards as the compute-fault buffers; each
    :class:`ExchangeOp` executes its relayout (a ``-stage``/``-rail``
    pair as the staged form).  ``coset_shift`` is the shift the
    ``coset`` / ``inv-coset`` ops scale by.  The caller verifies the
    schedule (:func:`unintt_program`, :func:`interpret_schedule`); ops
    this executor has no kernel or relayout for raise
    :class:`SchedulePassError` before any data moves.
    """
    n = len(cluster.gpus[0].shard) * cluster.gpu_count
    fused, coset = True, False
    for op in schedule.ops:
        if isinstance(op, LocalOp):
            for part in op.name.split("+"):
                kernel = _kernel_name(part)
                if kernel not in _KERNELS:
                    raise SchedulePassError(
                        f"{schedule.name!r}: no kernel for local op "
                        f"{part!r} (interpreter understands "
                        f"{list(_KERNELS)} and their inv- and inter- "
                        f"forms)")
                # A first-level twiddle pass means the local
                # transforms do not fuse theirs.
                fused = fused and part.removeprefix("inv-") \
                    != "twiddle-pass"
                coset = coset or kernel == "coset"
        elif not isinstance(op, ExchangeOp):
            raise SchedulePassError(
                f"{schedule.name!r}: interpreter does not execute "
                f"{type(op).__name__} ops ({op.name!r})")
        elif op.source is None or op.target is None \
                or op.source.n != n:
            raise SchedulePassError(
                f"{schedule.name!r}: exchange op {op.name!r} carries no "
                f"relayout of the cluster's {n} elements")
    if coset != (coset_shift is not None):
        raise SchedulePassError(
            f"{schedule.name!r}: a coset shift goes with, and only with, "
            f"coset ops")
    if coset and coset_shift % cluster.field.modulus == 0:
        raise PartitionError("coset shift must be non-zero")

    ops = schedule.ops
    i = 0
    while i < len(ops):
        op = ops[i]
        if isinstance(op, LocalOp):
            for part in op.name.split("+"):
                _KERNELS[_kernel_name(part)](
                    cluster, op, part.startswith("inv-"), coset_shift,
                    fused)
            cluster.charge_local(
                op.field_muls_per_gpu, op.mem_bytes_per_gpu,
                detail=op.name,
                buffers={gpu.gpu_id: [gpu.shard] for gpu in cluster.gpus})
        elif op.name.endswith("-stage"):
            base = _base_exchange_name(op)
            rail = ops[i + 1] if i + 1 < len(ops) else None
            if (not isinstance(rail, ExchangeOp)
                    or rail.name != f"{base}-rail"):
                raise SchedulePassError(
                    f"{op.name!r} is not followed by its {base}-rail op")
            _staged_redistribute(cluster, op.source, op.target, base)
            i += 1
        else:
            redistribute(cluster, op.source, op.target,
                         detail=_base_exchange_name(op))
        i += 1


def interpret_schedule(schedule: CommSchedule, cluster: SimCluster,
                       values: list[int]) -> list[int]:
    """Run a verified forward unintt-family schedule on real data.

    Loads ``values`` in the engine's cyclic input layout, executes
    every op (:func:`execute_schedule`: kernels compute, collectives
    move the declared bytes, charges hit the trace), and returns the
    transform output in natural order — bit-exact with
    :meth:`repro.multigpu.unintt.UniNTTEngine.forward` on the same
    input.
    """
    _require_verified(schedule)
    g = schedule.num_gpus
    if cluster.gpu_count != g:
        raise SchedulePassError(
            f"schedule is for {g} GPUs, cluster has {cluster.gpu_count}")
    if cluster.element_bytes != schedule.element_bytes:
        raise SchedulePassError(
            f"element size mismatch: schedule {schedule.element_bytes}B, "
            f"cluster field {cluster.element_bytes}B")
    n = len(values)
    if n < g * g or n % g:
        raise SchedulePassError(
            f"unintt schedules need n >= G^2 with G | n ({n}, G={g})")
    if any(op.name.startswith("inv-") for op in schedule.ops):
        raise SchedulePassError(
            f"{schedule.name!r} is an inverse program; it runs through "
            f"UniNTTEngine.inverse, which stages its spectral input")
    if any(isinstance(op, LocalOp) and op.fanout != g
           for op in schedule.ops):
        raise SchedulePassError(
            f"{schedule.name!r} recurses over more than one level; it "
            f"runs through HierarchicalUniNTTEngine, which stages its "
            f"nested input")

    cluster.load_shards(distribute(values, CyclicLayout(n=n, gpu_count=g)))
    execute_schedule(schedule, cluster)
    materialized = any(_base_exchange_name(op) == "unintt-materialize"
                       for op in schedule.ops
                       if isinstance(op, ExchangeOp))
    out_layout: Layout = (BlockLayout(n=n, gpu_count=g) if materialized
                          else SpectralLayout(n=n, gpu_count=g))
    return collect(cluster.peek_shards(), out_layout)
