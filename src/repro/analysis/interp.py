"""Schedule interpreter: execute a verified ``CommSchedule`` on the simulator.

The final piece of the verification story.  Passes and synthesis prove
a schedule's *accounting* (gate in :mod:`repro.analysis.passes`); this
module proves its *semantics* by actually running the op list on a
:class:`~repro.sim.cluster.SimCluster` — real field values flow through
every declared transfer — and letting tests check the result bit-exact
against the engine the schedule was derived from, and the recorded
trace's ``bytes_by_level()`` bit-for-bit against the schedule's.

The interpreter understands the **unintt family** of schedules
(:func:`~repro.multigpu.schedule.build_unintt_schedule` and everything
the pass framework / :mod:`repro.analysis.synth` derive from it):

* local kernels by op name — ``local-ntt``, ``twiddle-pass``,
  ``cross-ntt`` — with merged names (``a+b`` from the merge pass) split
  and applied in order, then charged once per :class:`LocalOp`;
* flat exchanges by relayout (``unintt-exchange``,
  ``unintt-materialize``), executed by
  :func:`~repro.multigpu.base.redistribute`;
* hierarchical ``*-stage`` / ``*-rail`` pairs, executed as two chained
  ``all_to_all`` collectives with the data genuinely forwarded through
  the per-node scratch GPUs (:func:`~repro.analysis.synth.route_via`).
  Both kinds run the same memoized
  :func:`~repro.multigpu.base.relayout_plan` of the layout pair.

Anything else — or a schedule that fails :func:`verify_schedule` —
raises :class:`~repro.errors.SchedulePassError` before touching data.
"""

from __future__ import annotations

from repro.analysis.plancheck import verify_schedule
from repro.analysis.synth import route_via
from repro.errors import SchedulePassError
from repro.multigpu.base import (
    local_step, redistribute, relayout_plan, twiddle_table,
)
from repro.multigpu.layout import (
    BlockLayout, CyclicLayout, Layout, SpectralLayout, UniNTTExchangeLayout,
    collect, distribute,
)
from repro.multigpu.schedule import (
    CommSchedule, ExchangeOp, LocalOp, ScheduleOp,
)
from repro.sim.cluster import SimCluster

__all__ = ["interpret_schedule"]

#: Flat exchange ops the unintt family uses, as (source, target) layouts.
_RELAYOUTS = {
    "unintt-exchange": (BlockLayout, UniNTTExchangeLayout),
    "unintt-materialize": (SpectralLayout, BlockLayout),
}

_LOCAL_KERNELS = ("local-ntt", "twiddle-pass", "cross-ntt")


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


def interpret_schedule(schedule: CommSchedule, cluster: SimCluster,
                       values: list[int]) -> list[int]:
    """Run a verified unintt-family schedule on real data.

    Loads ``values`` in the engine's cyclic input layout, executes
    every op (kernels compute, collectives move the declared bytes,
    charges hit the trace), and returns the transform output in natural
    order — bit-exact with
    :meth:`repro.multigpu.unintt.UniNTTEngine.forward` on the same
    input.
    """
    findings = verify_schedule(schedule)
    if findings:
        raise SchedulePassError(
            f"refusing to interpret {schedule.name!r}: "
            f"{findings[0].format()}")
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
    m = n // g
    field = cluster.field
    p = field.modulus
    root = field.root_of_unity(n)

    kernel_names = [part for op in schedule.ops if isinstance(op, LocalOp)
                    for part in op.name.split("+")]
    unknown = [k for k in kernel_names if k not in _LOCAL_KERNELS]
    if unknown:
        raise SchedulePassError(
            f"{schedule.name!r}: no kernel for local op(s) {unknown!r} "
            f"(interpreter understands {list(_LOCAL_KERNELS)})")
    separate_twiddle = "twiddle-pass" in kernel_names

    twiddles = twiddle_table(field, root, range(g), m)

    def run_kernel(kernel: str) -> None:
        if kernel == "local-ntt":
            local_step(cluster, m, pow(root, g, p),
                       post=None if separate_twiddle else twiddles)
        elif kernel == "twiddle-pass":
            local_step(cluster, post=twiddles)
        else:  # cross-ntt
            local_step(cluster, g, pow(root, m, p))

    cluster.load_shards(distribute(values, CyclicLayout(n=n, gpu_count=g)))

    ops: list[ScheduleOp] = list(schedule.ops)
    i = 0
    while i < len(ops):
        op = ops[i]
        if isinstance(op, LocalOp):
            for part in op.name.split("+"):
                run_kernel(part)
            cluster.charge_local(op.field_muls_per_gpu,
                                 op.mem_bytes_per_gpu, detail=op.name)
        elif isinstance(op, ExchangeOp):
            base = _base_exchange_name(op)
            layouts = _RELAYOUTS.get(base)
            if layouts is None:
                raise SchedulePassError(
                    f"{schedule.name!r}: no relayout for exchange op "
                    f"{op.name!r}")
            source, target = (cls(n=n, gpu_count=g) for cls in layouts)
            if op.name.endswith("-stage"):
                rail = ops[i + 1] if i + 1 < len(ops) else None
                if (not isinstance(rail, ExchangeOp)
                        or rail.name != f"{base}-rail"):
                    raise SchedulePassError(
                        f"{op.name!r} is not followed by its "
                        f"{base}-rail op")
                _staged_redistribute(cluster, source, target, base)
                i += 1
            else:
                redistribute(cluster, source, target, detail=base)
        else:
            raise SchedulePassError(
                f"{schedule.name!r}: interpreter does not execute "
                f"{type(op).__name__} ops ({op.name!r})")
        i += 1

    bases = {_base_exchange_name(op) for op in schedule.ops
             if isinstance(op, ExchangeOp)}
    out_layout: Layout = (BlockLayout(n=n, gpu_count=g)
                          if "unintt-materialize" in bases
                          else SpectralLayout(n=n, gpu_count=g))
    return collect(cluster.peek_shards(), out_layout)
