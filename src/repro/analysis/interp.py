"""Schedule interpreter: the executor of every multi-GPU program.

:mod:`repro.multigpu.schedule` writes each engine family's runs as a
:class:`~repro.multigpu.schedule.CommSchedule`: UniNTT's over any
number of device levels (which the pass framework and
:mod:`repro.analysis.synth` rewrite), the binary-exchange engine's and
the baseline four-step's.
:func:`execute_schedule` is the one executor.  Every
:class:`~repro.multigpu.unintt.ProgramEngine` runs its memoized,
verified program (:func:`verified_program`) through it and prices its
steps (:func:`program_steps`); :func:`interpret_schedule` stages a
host vector and runs any verified one-level forward UniNTT schedule,
rewritten or not.  The packed polynomial path charges UniNTT's program
op by op without moving data.

The executor runs:

* local kernels from one table keyed by op name — ``coset``,
  ``local-ntt``, ``twiddle-pass``, ``cross-ntt`` (also under the
  baseline's names ``col-ntt`` and ``row-ntt``), ``pairwise-combine``
  (named ``-h<half>`` per stage), each with an ``inv-`` twin and
  ``inter-`` forms for the outer levels (one prefix per level above
  the innermost) — each reading its level's fanout and twiddle layout
  from the op, with merged names (``a+b`` from the merge pass) split
  and applied in order, then charged once per :class:`LocalOp` through
  :meth:`~repro.sim.cluster.SimCluster.charge_local` with the live
  shards, so an injected compute fault corrupts real data;
* exchanges by the relayout each :class:`ExchangeOp` carries,
  executed by :func:`~repro.multigpu.base.redistribute` (an outer
  level's is rail-aligned by its layouts);
* pairwise swaps (:class:`PairwiseOp`) of whole shards through
  :meth:`~repro.sim.cluster.SimCluster.pairwise_exchange`, whose
  delivered shards the following ``pairwise-combine`` kernel reads;
* synthesized ``*-stage`` / ``*-rail`` pairs, executed as two chained
  ``all_to_all`` collectives with the data genuinely forwarded through
  the per-node scratch GPUs (:func:`~repro.multigpu.schedule.route_via`).
  Both kinds run the same memoized
  :func:`~repro.multigpu.base.relayout_plan` of the layout pair.

Anything else — or a schedule that fails :func:`verify_schedule` —
raises :class:`~repro.errors.SchedulePassError` before touching data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Callable

from repro.analysis.plancheck import verify_schedule
from repro.errors import PartitionError, SchedulePassError
from repro.field.backend import get_backend
from repro.hw.cost import Step
from repro.hw.plancost import schedule_steps
from repro.multigpu.base import (
    local_step, redistribute, relayout_plan, twiddle_table,
)
from repro.multigpu.layout import (
    BlockLayout, CyclicLayout, Layout, SpectralLayout, collect, distribute,
)
from repro.multigpu.schedule import (
    CommSchedule, ExchangeOp, LocalOp, PairwiseOp, route_via,
)
from repro.ntt.batch import StepTable
from repro.sim.cluster import SimCluster

__all__ = ["execute_schedule", "interpret_schedule", "verified_program",
           "program_steps"]


def _step_root(cluster: SimCluster, inverse: bool) -> tuple[int, int, int]:
    """(n, shard size M, the n-th root of unity or its inverse)."""
    m = len(cluster.gpus[0].shard)
    n = m * cluster.gpu_count
    root = cluster.field.root_of_unity(n)
    return n, m, cluster.field.inv(root) if inverse else root


def _twiddles(cluster: SimCluster, op: LocalOp,
              inverse: bool) -> StepTable:
    """The twiddle of the op's level, ``w_S^(s * k)`` for unit ``s``
    of each S-point transform the level completes.

    Without a layout the units are the GPUs modulo the fanout and
    ``k`` the local slot (right after the local transforms); with one,
    ``o * S + s * S/fanout + k`` is the global index the layout stores.
    S is n, or, read through an inner level's spectrum, fanout times
    that spectrum's :attr:`~repro.multigpu.layout.SpectralLayout.span`.
    """
    n, m, root = _step_root(cluster, inverse)
    f = op.fanout
    p = cluster.field.modulus
    if op.layout is None:
        return twiddle_table(cluster.field, pow(root, n // (m * f), p),
                             [s % f for s in range(cluster.gpu_count)], m)
    span = f * op.layout.span if isinstance(op.layout, SpectralLayout) \
        else n
    return twiddle_table(cluster.field, pow(root, n // span, p),
                         [*range(f)] * (n // span), span // f,
                         layout=op.layout)


@dataclass
class _Run:
    """Kernel inputs besides the op; ``received``: what each GPU got
    from the last pairwise swap."""

    shift: int | None
    fused: bool
    received: list[list[int]] | None = None


def _coset(cluster: SimCluster, op: LocalOp, inverse: bool,
           run: _Run) -> None:
    """``x[j] *= shift^(+-j)`` over the cyclic layout: on GPU ``s``,
    ``shift^s`` times the local geometric series of ``shift^G``."""
    field = cluster.field
    n = len(cluster.gpus[0].shard) * cluster.gpu_count
    local_step(cluster, post=twiddle_table(
        field, field.inv(run.shift) if inverse else run.shift, (1,), n,
        layout=CyclicLayout(n=n, gpu_count=cluster.gpu_count)))


def _local_ntt(cluster: SimCluster, op: LocalOp, inverse: bool,
               run: _Run) -> None:
    """The M-point transforms; the first level's twiddle rides them
    when fused (after them forward, before them inverse, which also
    scales 1/M)."""
    n, m, root = _step_root(cluster, inverse)
    p = cluster.field.modulus
    twiddles = _twiddles(cluster, op, inverse) if run.fused else None
    if inverse:
        local_step(cluster, m, pow(root, n // m, p), pre=twiddles,
                   scale=cluster.field.inv(m % p))
    else:
        local_step(cluster, m, pow(root, n // m, p), post=twiddles)


def _twiddle_pass(cluster: SimCluster, op: LocalOp, inverse: bool,
                  run: _Run) -> None:
    """A level's twiddle as its own step."""
    local_step(cluster, post=_twiddles(cluster, op, inverse))


def _cross_ntt(cluster: SimCluster, op: LocalOp, inverse: bool,
               run: _Run) -> None:
    """Every GPU's contiguous fanout-point transforms (inverse:
    1/fanout)."""
    n, _, root = _step_root(cluster, inverse)
    f = op.fanout
    p = cluster.field.modulus
    local_step(cluster, f, pow(root, n // f, p),
               scale=cluster.field.inv(f % p) if inverse else None)


@lru_cache(maxsize=16)
def _combine_tables(p: int, step: int, half: int, gpus: int, m: int,
                    inverse: bool) -> tuple[tuple[int, ...], ...]:
    """Per-GPU coefficients ``(Ca, Cb)`` of one pairwise stage, each
    repeated over its shard, the inverse's 1/2 folded in: the stage
    writes ``a * Ca + b * Cb``."""
    half_inv = pow(2, -1, p) if inverse else 1
    ca: list[int] = []
    cb: list[int] = []
    for s in range(gpus):
        w = pow(step, s % half, p)
        a, b = ((-w, 1 if inverse else w) if s & half
                else (1, w if inverse else 1))
        ca += [a * half_inv % p] * m
        cb += [b * half_inv % p] * m
    return tuple(ca), tuple(cb)


def _pairwise_combine(cluster: SimCluster, op: LocalOp, inverse: bool,
                      run: _Run) -> None:
    """One radix-2 butterfly stage over the GPU dimension, combining
    each shard ``a`` with the partner's ``b`` the preceding swap
    delivered.  The stage spans ``fanout`` GPUs; the GPU with the
    ``half = fanout/2`` bit set holds the twiddled output, and the
    pair's twiddle is ``w^(n/fanout * (s mod half))``.  Forward (DIF):
    ``a + b`` and ``(b - a) * w``.  Inverse (DIT): ``a + b * w`` and
    ``b - a * w``, halved, so the stages scale by 1/G in all.  Every
    GPU's output is ``a * Ca + b * Cb`` with its own constants, so the
    stage is one batched computation over the GPU-major shards."""
    if run.received is None:
        raise SchedulePassError(f"{op.name!r} follows no pairwise swap")
    field = cluster.field
    p = field.modulus
    n, m, root = _step_root(cluster, inverse)
    ca, cb = _combine_tables(p, pow(root, n // op.fanout, p),
                             op.fanout // 2, cluster.gpu_count, m, inverse)
    a = list(chain.from_iterable(gpu.shard for gpu in cluster.gpus))
    b = list(chain.from_iterable(run.received))
    backend = get_backend()
    out = backend.unpack(field, backend.add(
        field, backend.mul(field, a, ca), backend.mul(field, b, cb)))
    for i, gpu in enumerate(cluster.gpus):
        gpu.shard = out[i * m:(i + 1) * m]
    run.received = None


#: Local kernels by op name ``[inv-][inter-]*kernel[-h<half>]``: ``inv-``
#: runs the inverse twin; ``inter-`` repeats once per level above the
#: innermost, and each kernel reads its level from the op.  The
#: baseline's column and row transforms are cross transforms named apart
#: so their modeled seconds stay separate phases.
_KERNELS = {
    "coset": _coset,
    "local-ntt": _local_ntt,
    "twiddle-pass": _twiddle_pass,
    "cross-ntt": _cross_ntt,
    "col-ntt": _cross_ntt,
    "row-ntt": _cross_ntt,
    "pairwise-combine": _pairwise_combine,
}


def _kernel_name(part: str) -> str:
    name = part.removeprefix("inv-")
    while name.startswith("inter-"):
        name = name.removeprefix("inter-")
    stem, _, half = name.rpartition("-h")
    return stem if half.isdigit() else name


def _require_verified(schedule: CommSchedule) -> None:
    findings = verify_schedule(schedule)
    if findings:
        raise SchedulePassError(
            f"refusing to interpret {schedule.name!r}: "
            f"{findings[0].format()}")


@lru_cache(maxsize=64)
def verified_program(builder: Callable[..., CommSchedule],
                     *args) -> CommSchedule:
    """The verified program ``builder(*args)`` writes.

    Memoized (bounded LRU) on the builder and its arguments — a run's
    full identity, e.g. n, G, element size, options, tile, direction,
    coset and node count for UniNTT — so :func:`verify_schedule` runs
    once per key; a finding raises :class:`SchedulePassError`.
    """
    schedule = builder(*args)
    _require_verified(schedule)
    return schedule


@lru_cache(maxsize=256)
def program_steps(builder: Callable[..., CommSchedule],
                  *args) -> tuple[Step, ...]:
    """:func:`~repro.hw.plancost.schedule_steps` of the program
    :func:`verified_program` returns, built and verified the same way
    but memoized apart, so pricing sweeps (the tile autotuner prices
    every tile) never evict the programs transforms execute."""
    return tuple(schedule_steps(verified_program.__wrapped__(
        builder, *args)))


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
    """Run a program on the cluster's current shards.

    Each :class:`LocalOp` runs its kernel(s) and is charged once with
    the live shards as the compute-fault buffers; each
    :class:`ExchangeOp` executes its relayout (a ``-stage``/``-rail``
    pair as the staged form); each :class:`PairwiseOp` swaps whole
    shards for the ``pairwise-combine`` kernel that follows it.
    ``coset_shift`` is the shift the ``coset`` / ``inv-coset`` ops
    scale by.  The caller verifies the schedule
    (:func:`verified_program`, :func:`interpret_schedule`); ops this
    executor has no kernel or relayout for raise
    :class:`SchedulePassError` before any data moves.
    """
    m = len(cluster.gpus[0].shard)
    n = m * cluster.gpu_count
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
        elif isinstance(op, PairwiseOp):
            if op.bytes_per_gpu != m * cluster.element_bytes:
                raise SchedulePassError(
                    f"{schedule.name!r}: pairwise op {op.name!r} does "
                    f"not swap whole {m}-element shards")
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

    run = _Run(shift=coset_shift, fused=fused)
    ops = schedule.ops
    i = 0
    while i < len(ops):
        op = ops[i]
        if isinstance(op, LocalOp):
            for part in op.name.split("+"):
                _KERNELS[_kernel_name(part)](
                    cluster, op, part.startswith("inv-"), run)
            cluster.charge_local(
                op.field_muls_per_gpu, op.mem_bytes_per_gpu,
                detail=op.name,
                buffers={gpu.gpu_id: [gpu.shard] for gpu in cluster.gpus})
        elif isinstance(op, PairwiseOp):
            run.received = cluster.pairwise_exchange(
                op.partner_of, [gpu.shard for gpu in cluster.gpus],
                detail=op.name)
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
    if any(isinstance(op, PairwiseOp)
           or isinstance(op, LocalOp) and op.fanout != g
           for op in schedule.ops):
        raise SchedulePassError(
            f"{schedule.name!r} is not a one-level UniNTT program; it "
            f"runs through its engine, which stages its input")

    cluster.load_shards(distribute(values, CyclicLayout(n=n, gpu_count=g)))
    execute_schedule(schedule, cluster)
    materialized = any(_base_exchange_name(op) == "unintt-materialize"
                       for op in schedule.ops
                       if isinstance(op, ExchangeOp))
    out_layout: Layout = (BlockLayout(n=n, gpu_count=g) if materialized
                          else SpectralLayout(n=n, gpu_count=g))
    return collect(cluster.peek_shards(), out_layout)
