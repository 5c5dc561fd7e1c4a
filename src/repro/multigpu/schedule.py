"""The uniform optimization set and the symbolic communication schedule.

The paper designs each optimization once against the abstract hardware
model and instantiates it per level.  :class:`UniNTTOptions` is that
set, as toggles the ablation benchmark flips:

* ``fused_twiddle`` — fold the inter-factor twiddle scaling into the
  adjacent butterfly pass instead of a standalone memory sweep.  At the
  warp level this is "twiddles in registers"; at the GPU level it is
  "no twiddle kernel"; the toggle applies uniformly.
* ``keep_permuted_output`` — leave the forward output in
  :class:`~repro.multigpu.layout.SpectralLayout` instead of
  materializing natural order, deleting one all-to-all (and, at the
  intra-GPU levels, the bit-reversal pass: DIF forward + DIT inverse).
* ``overlap`` — pipeline the all-to-all chunk-by-chunk with the cross
  transforms that consume it (at the warp level the analogue is
  shuffle/compute dual issue).
* ``radix_fusion`` — use radix-4 butterflies for local transforms,
  reducing twiddle multiplications (register-level instance of the same
  "do more per visit" idea that tiling applies at the memory level).

The second half of the module is the **symbolic schedule**: a
:class:`CommSchedule` is the list of local passes and shard transfers of
one engine run, with exact accounting but no data.  It is the program
itself: :func:`build_unintt_schedule` is the only description of a
UniNTT run at every device level of the hierarchy (one loop over the
levels' fanouts: one exchange level on a flat cluster, an intra-node
and an inter-node level on a node-structured one, and so on), and
:func:`build_pairwise_schedule` and :func:`build_baseline_schedule`
are those of the comparison engines;
the engines execute and price them and the packed path charges
UniNTT's.  It is also the object the plan verifier
(:mod:`repro.analysis.plancheck`) walks: every op declares which
dataflow *tag* it consumes and produces, so read-before-write,
lost/duplicated transfers and deadlocks are decidable without running
the simulator.  Transfers are the closed-form
:func:`~repro.multigpu.base.exchange_counts` of the real
:class:`~repro.multigpu.layout.Layout` pair — derived from the same
bit permutations as the relayout plan
:func:`~repro.multigpu.base.redistribute` executes — so the schedule's
byte totals equal the simulator's traced totals bit-for-bit, in O(G^2)
per exchange at any transform size.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
from math import prod
from typing import Union

from repro.multigpu import accounting as acct
from repro.multigpu.base import exchange_counts
from repro.multigpu.layout import (
    BlockLayout, ColumnBlockLayout, Layout, SpectralLayout,
    TransposedBlockLayout, UniNTTExchangeLayout,
)
from repro.ntt import radix4
from repro.ntt.fourstep import split_size

__all__ = [
    "UniNTTOptions", "ALL_ON", "ALL_OFF", "ablation_grid",
    "ShardTransfer", "LocalOp", "ExchangeOp", "PairwiseOp", "ScheduleOp",
    "CommSchedule", "make_transfers", "route_via",
    "build_unintt_schedule", "build_pairwise_schedule",
    "build_baseline_schedule",
]


@dataclass(frozen=True)
class UniNTTOptions:
    """Toggle set for the uniform optimizations."""

    fused_twiddle: bool = True
    keep_permuted_output: bool = True
    overlap: bool = True
    radix_fusion: bool = True

    def label(self) -> str:
        """Compact on/off string for reports, e.g. ``FT+PO+OV+RF``."""
        parts = [
            ("FT", self.fused_twiddle),
            ("PO", self.keep_permuted_output),
            ("OV", self.overlap),
            ("RF", self.radix_fusion),
        ]
        on = [tag for tag, enabled in parts if enabled]
        return "+".join(on) if on else "none"

    def without(self, name: str) -> "UniNTTOptions":
        """Copy with one optimization disabled (ablation helper)."""
        if not hasattr(self, name):
            raise AttributeError(f"unknown optimization {name!r}")
        return replace(self, **{name: False})


#: Full UniNTT configuration.
ALL_ON = UniNTTOptions()

#: The un-optimized decomposition (still one-exchange-structured).
ALL_OFF = UniNTTOptions(fused_twiddle=False, keep_permuted_output=False,
                        overlap=False, radix_fusion=False)


def ablation_grid() -> list[tuple[str, "UniNTTOptions"]]:
    """The configurations the ablation figure sweeps.

    Returns (label, options) pairs: everything on, each optimization
    individually removed, and everything off.
    """
    grid: list[tuple[str, UniNTTOptions]] = [("all-on", ALL_ON)]
    for name in ("fused_twiddle", "keep_permuted_output", "overlap",
                 "radix_fusion"):
        grid.append((f"no-{name}", ALL_ON.without(name)))
    grid.append(("all-off", ALL_OFF))
    return grid


# ---------------------------------------------------------------------------
# Symbolic communication schedule
# ---------------------------------------------------------------------------

#: Dataflow tag every shard starts with before any op runs.
INPUT_TAG = "input"


@dataclass(frozen=True)
class ShardTransfer:
    """One point-to-point message inside a collective (``src != dst``)."""

    src: int
    dst: int
    nbytes: int


@dataclass(frozen=True)
class LocalOp:
    """A kernel every GPU runs on its own shard — no remote reads.

    ``consumes`` is the dataflow tag the shard must carry when the op
    starts; ``produces`` is the tag it carries afterwards.  The verifier
    treats a tag mismatch as a read-before-write: the shard the op reads
    was not produced by the pass the schedule says it depends on.
    """

    name: str
    consumes: str
    produces: str
    level: str = "gpu"
    field_muls_per_gpu: int = 0
    mem_bytes_per_gpu: int = 0
    #: The fanout of the recursion level the kernel belongs to: the
    #: size of a cross transform, the unit count of a twiddle.
    fanout: int = 1
    #: The layout a twiddle reads its spectrum index through (``None``:
    #: the shard's own slots, as after the local transforms).
    layout: Layout | None = None
    #: See :attr:`ExchangeOp.pipelined`: overlap this kernel with the
    #: collective that consumes its output.
    pipelined: bool = False


@dataclass(frozen=True)
class ExchangeOp:
    """A personalized all-to-all rewriting every destination shard.

    ``transfers`` enumerates the off-diagonal messages (self-kept data
    moves no bytes, matching :meth:`SimCluster.all_to_all`).
    ``expected_in_bytes[dst]`` is how many bytes GPU ``dst`` must
    receive for its new shard to be complete — the verifier flags a
    shortfall as a lost transfer (and the shard stays stale) and an
    excess as a duplicated transfer.
    """

    name: str
    consumes: str
    produces: str
    transfers: tuple[ShardTransfer, ...]
    expected_in_bytes: tuple[int, ...]
    level: str = "multi-gpu"
    pattern: str = "all-to-all"
    #: Set by the pipeline-fusion pass: overlap this collective with the
    #: op that consumes its output (SCCL's recv-copy-send chaining).
    #: Pure scheduling metadata — moves no bytes, changes no dataflow.
    pipelined: bool = False
    #: The relayout the exchange executes (``None`` for a hand-built
    #: op, which the executor refuses to run).
    source: Layout | None = None
    target: Layout | None = None

    def total_bytes(self) -> int:
        return sum(t.nbytes for t in self.transfers)

    def sent_bytes_per_gpu(self, num_gpus: int) -> list[int]:
        sent = [0] * num_gpus
        for t in self.transfers:
            sent[t.src] += t.nbytes
        return sent

    def received_bytes_per_gpu(self, num_gpus: int) -> list[int]:
        received = [0] * num_gpus
        for t in self.transfers:
            received[t.dst] += t.nbytes
        return received


@dataclass(frozen=True)
class PairwiseOp:
    """A disjoint-pair exchange: GPU ``i`` swaps with ``partner_of[i]``.

    The partner map must be an involution; anything else leaves at
    least one GPU waiting on a peer that is not waiting on it, which
    the verifier reports as a deadlock cycle.
    """

    name: str
    consumes: str
    produces: str
    partner_of: tuple[int, ...]
    bytes_per_gpu: int
    level: str = "multi-gpu"
    pattern: str = "pairwise"
    #: See :attr:`ExchangeOp.pipelined`.
    pipelined: bool = False

    def total_bytes(self) -> int:
        return sum(self.bytes_per_gpu
                   for i, j in enumerate(self.partner_of) if i != j)


ScheduleOp = Union[LocalOp, ExchangeOp, PairwiseOp]


@dataclass(frozen=True)
class CommSchedule:
    """An engine run as a symbolic op list (no data, exact accounting)."""

    name: str
    num_gpus: int
    element_bytes: int
    ops: tuple[ScheduleOp, ...] = dataclass_field(default_factory=tuple)

    def with_ops(self, ops: tuple[ScheduleOp, ...]) -> "CommSchedule":
        """Copy with a different op list (fault-injection helper)."""
        return replace(self, ops=ops)

    def collective_ops(self) -> list[ScheduleOp]:
        return [op for op in self.ops
                if isinstance(op, (ExchangeOp, PairwiseOp))]

    def bytes_by_level(self) -> dict[str, int]:
        """Predicted byte totals per level, sorted keys.

        Built to equal :meth:`repro.sim.trace.Trace.bytes_by_level` for
        the run the schedule describes: local passes contribute their
        memory sweep on every GPU, collectives their off-diagonal
        transfer bytes.
        """
        totals: dict[str, int] = {}
        for op in self.ops:
            if isinstance(op, LocalOp):
                nbytes = op.mem_bytes_per_gpu * self.num_gpus
            else:
                nbytes = op.total_bytes()
            if nbytes:
                totals[op.level] = totals.get(op.level, 0) + nbytes
        return dict(sorted(totals.items()))

    def total_field_muls(self) -> int:
        return sum(op.field_muls_per_gpu * self.num_gpus
                   for op in self.ops if isinstance(op, LocalOp))


def route_via(src: int, dst: int, node_size: int) -> int:
    """The GPU that carries a ``src -> dst`` message out of src's node.

    Same node: deliver directly (``dst``).  Cross node: the scratch GPU
    in src's node on dst's *rail* (same intra-node index), so the
    inter-node hop is rail-aligned and aggregates per destination.
    """
    if src // node_size == dst // node_size:
        return dst
    return (src // node_size) * node_size + dst % node_size


def split_exchange(op: ExchangeOp, num_gpus: int,
                   node_size: int) -> tuple[ExchangeOp, ExchangeOp]:
    """Decompose a flat exchange into its stage + rail op pair.

    The stage op (``multi-gpu``) delivers same-node messages and
    forwards every cross-node one to the :func:`route_via` GPU; the
    rail op (``multi-node``) carries those to their destinations.
    """
    g = num_gpus
    stage = [[0] * g for _ in range(g)]
    rail = [[0] * g for _ in range(g)]
    for t in op.transfers:
        via = route_via(t.src, t.dst, node_size)
        stage[t.src][via] += t.nbytes
        if via != t.dst:
            rail[via][t.dst] += t.nbytes

    def exchange(name, consumes, produces, counts, level):
        transfers = tuple(
            ShardTransfer(src=src, dst=dst, nbytes=counts[src][dst])
            for src in range(g) for dst in range(g)
            if src != dst and counts[src][dst])
        received = [0] * g
        for t in transfers:
            received[t.dst] += t.nbytes
        return ExchangeOp(name=name, consumes=consumes, produces=produces,
                          transfers=transfers,
                          expected_in_bytes=tuple(received), level=level,
                          source=op.source, target=op.target)

    staged_tag = f"{op.produces}-staged"
    return (exchange(f"{op.name}-stage", op.consumes, staged_tag, stage,
                     "multi-gpu"),
            exchange(f"{op.name}-rail", staged_tag, op.produces, rail,
                     "multi-node"))


def make_transfers(source: Layout, target: Layout,
                   element_bytes: int) -> tuple[ShardTransfer, ...]:
    """Enumerate the messages that relayout ``source`` -> ``target``.

    Scales the closed-form :func:`repro.multigpu.base.exchange_counts`
    of the pair — the counts of the very plan
    :func:`repro.multigpu.base.redistribute` executes — by the element
    size, so the symbolic schedule's byte totals match the simulator's
    for *any* layout pair, including permutations that move uneven
    chunks between GPU pairs.
    """
    counts = exchange_counts(source, target)
    g = source.gpu_count
    return tuple(
        ShardTransfer(src=src, dst=dst, nbytes=counts[src][dst]
                      * element_bytes)
        for src in range(g) for dst in range(g)
        if src != dst and counts[src][dst])


class _Writer:
    """Appends ops to a program, each consuming the tag the previous one
    produced; local ops default to the first level's ``fanout``."""

    def __init__(self, gpu_count: int, element_bytes: int, fanout: int):
        self.gpu_count, self.element_bytes = gpu_count, element_bytes
        self.fanout = fanout
        self.ops: list[ScheduleOp] = []

    def add(self, op_type: type, name: str, produces: str,
            **fields) -> None:
        consumes = self.ops[-1].produces if self.ops else INPUT_TAG
        self.ops.append(op_type(name=name, consumes=consumes,
                                produces=produces, **fields))

    def local(self, name: str, produces: str, muls: int, mem: int,
              fanout: int | None = None, layout: Layout | None = None,
              chained: bool = False) -> None:
        self.add(LocalOp, name, produces, field_muls_per_gpu=muls,
                 mem_bytes_per_gpu=mem, fanout=fanout or self.fanout,
                 layout=layout, pipelined=chained)

    def relayout(self, name: str, source: Layout, target: Layout,
                 produces: str, level: str = "multi-gpu",
                 chained: bool = False, node_size: int = 0) -> None:
        """One exchange op; with ``node_size``, its stage + rail pair."""
        transfers = make_transfers(source, target, self.element_bytes)
        received = [0] * self.gpu_count
        for t in transfers:
            received[t.dst] += t.nbytes
        self.add(ExchangeOp, name, produces, transfers=transfers,
                 expected_in_bytes=tuple(received), level=level,
                 pipelined=chained, source=source, target=target)
        if node_size:
            self.ops[-1:] = split_exchange(self.ops[-1], self.gpu_count,
                                           node_size)

    def schedule(self, name: str) -> CommSchedule:
        return CommSchedule(name=name, num_gpus=self.gpu_count,
                            element_bytes=self.element_bytes,
                            ops=tuple(self.ops))


def build_unintt_schedule(n: int, gpu_count: int, element_bytes: int,
                          options: UniNTTOptions = ALL_ON,
                          tile: int = 4096, inverse: bool = False,
                          coset: bool = False, fanouts: tuple[int, ...] = (),
                          pipelined: bool = False) -> CommSchedule:
    """The UniNTT program: every local pass and exchange of one run.

    The UniNTT engines execute exactly this op list
    (:func:`repro.analysis.interp.execute_schedule`) and price it
    (:func:`repro.hw.plancost.schedule_steps`), and the packed
    polynomial path charges it op by op, so
    :meth:`CommSchedule.bytes_by_level` and
    :meth:`CommSchedule.total_field_muls` are the trace's own charges.

    ``fanouts`` lists the device levels outermost first and multiplies
    to G: ``(G,)`` (the default) on a flat cluster, ``(N, P)`` on N
    nodes of P GPUs.  The recursion runs once per level, innermost
    first: the local transforms (the first level's twiddle fused or a
    ``twiddle-pass``), then per level its twiddle (from the second
    level on, read through the previous level's spectrum), its exchange
    (``multi-gpu`` for the innermost level, rail-aligned ``multi-node``
    for every outer one) and its cross transforms; last the
    materializing relayout unless the output stays permuted (on more
    than one level, a ``-stage``/``-rail`` pair through the nodes' rail
    GPUs, :func:`split_exchange`).  Level
    ``i``'s ops carry ``i`` ``inter-`` prefixes.  Every stage layout is
    the :class:`~repro.multigpu.layout.UniNTTLayout` of the fanouts.
    ``inverse`` runs the same loop backwards, scaling by 1/fanout in
    each cross transform and 1/M in the local ones.  ``coset`` (one
    level only) adds the scaling ``x[j] *= shift^(+-j)`` over the
    cyclic layout, first forward and last inverse; the shift is data,
    supplied when the program runs.  ``pipelined`` marks the chains
    ``options.overlap`` overlaps: each exchange with the cross
    transforms that consume it (forward) or produce its input
    (inverse); off, as the pass framework's input.
    """
    g = gpu_count
    fanouts = tuple(fanouts) or (g,)
    if any(f < 1 or f & (f - 1) for f in fanouts) or prod(fanouts) != g:
        raise ValueError(f"fanouts {fanouts} do not split {g} GPUs")
    widest = max(fanouts)
    if n < g * widest:
        raise ValueError(
            f"UniNTT needs n >= G^2 on one level, G times the widest "
            f"fanout on more (fanouts {fanouts}: {n} < {g}*{widest})")
    if coset and len(fanouts) > 1:
        raise ValueError("coset programs run on one level only")
    m = n // g
    eb = element_bytes
    fused = options.fused_twiddle
    overlap = pipelined and options.overlap
    scale = m if inverse else 0  # every 1/M and 1/fanout multiply
    local_muls = (radix4.radix4_multiply_count(m) if options.radix_fusion
                  else acct.local_ntt_muls(m)) + scale
    if fused:
        local_muls += acct.twiddle_muls(m)
    pass_bytes = acct.pointwise_mem_bytes(m, eb)
    block = BlockLayout(n=n, gpu_count=g)
    # Per level, innermost first: (fanout, name prefix, exchange level,
    # source, exchanged layout); each level's source is the spectrum
    # the previous one left, the first's the local transforms' output.
    levels = []
    spectral: Layout = block
    for i, fanout in enumerate(reversed(fanouts)):
        exchanged = UniNTTExchangeLayout(n=n, gpu_count=g, fanouts=fanouts,
                                         level=i)
        levels.append((fanout, "inter-" * i,
                       "multi-node" if i else "multi-gpu", spectral,
                       exchanged))
        spectral = SpectralLayout(n=n, gpu_count=g, fanouts=fanouts,
                                  level=i)

    w = _Writer(g, eb, fanouts[-1])
    local, relayout = w.local, w.relayout
    # Across nodes, the natural-order relayout moves bytes inside and
    # between nodes: it stages through each node's rail GPUs, so every
    # op rides one fabric.
    staged = fanouts[-1] if len(fanouts) > 1 else 0

    # The coset scaling and the later levels' twiddles: multiplications
    # only (they ride an adjacent kernel) when twiddles are fused, a
    # standalone sweep otherwise.
    fused_bytes = 0 if fused else pass_bytes
    local_bytes = acct.local_ntt_mem_bytes(m, eb, tile)

    def cross_charge(fanout: int) -> tuple[int, int]:
        return (acct.small_batch_ntt_muls(m // fanout, fanout) + scale,
                acct.small_batch_mem_bytes(m // fanout, fanout, eb))

    if not inverse:
        if coset:
            local("coset", "coset", 2 * m, fused_bytes)
        local("local-ntt", "local", local_muls, local_bytes)
        if not fused:
            local("twiddle-pass", "twiddled", acct.twiddle_muls(m),
                  pass_bytes)
        for i, (fanout, pre, level, source, exchanged) in enumerate(levels):
            if i:
                local(f"{pre}twiddle-pass", f"{pre}twiddled",
                      acct.twiddle_muls(m), fused_bytes, fanout, source)
            relayout(f"unintt-{pre}exchange", source, exchanged,
                     f"{pre}exchanged", level, chained=overlap)
            local(f"{pre}cross-ntt", f"{pre}spectral",
                  *cross_charge(fanout), fanout)
        if not options.keep_permuted_output:
            relayout("unintt-materialize", spectral, block, "natural",
                     node_size=staged)
    else:
        if not options.keep_permuted_output:
            relayout("unintt-dematerialize", block, spectral, "spectral",
                     node_size=staged)
        for i, (fanout, pre, level, source, exchanged) in \
                reversed(list(enumerate(levels))):
            local(f"inv-{pre}cross-ntt", f"inv-{pre}cross",
                  *cross_charge(fanout), fanout, chained=overlap)
            relayout(f"unintt-inv-{pre}exchange", exchanged, source,
                     f"{pre}unit-major", level)
            if i:
                local(f"inv-{pre}twiddle-pass", f"inv-{pre}twiddled",
                      acct.twiddle_muls(m), fused_bytes, fanout, source)
        if not fused:
            local("inv-twiddle-pass", "inv-twiddled",
                  acct.twiddle_muls(m), pass_bytes)
        local("inv-local-ntt", "cyclic", local_muls, local_bytes)
        if coset:
            local("inv-coset", "inv-coset", 2 * m, fused_bytes)
    kind = "unintt" + ("-inverse" if inverse else "") \
        + ("-coset" if coset else "")
    shape = "@" + "x".join(map(str, fanouts)) if len(fanouts) > 1 else ""
    return w.schedule(f"{kind}[{options.label()}]{shape}")


def build_pairwise_schedule(n: int, gpu_count: int, element_bytes: int,
                            tile: int = 4096,
                            inverse: bool = False) -> CommSchedule:
    """The binary-exchange program: every pass and swap of one run.

    :class:`~repro.multigpu.pairwise.PairwiseExchangeEngine` executes
    and prices exactly this op list.  Forward: the M-point local
    transforms with the twiddle fused (``local-ntt``, fanout G), then
    ``log2(G)`` DIF butterfly stages over the GPU dimension, ``half``
    from G/2 down to 1, each a disjoint-pair swap of the whole shard
    (``pairwise-stage-h<half>``) and a combine pass
    (``pairwise-combine-h<half>``, fanout ``2*half``: the span of the
    stage's butterflies).  The inverse runs the DIT stages, ``half``
    from 1 up to G/2 (``pairwise-inv-h<half>``,
    ``inv-pairwise-combine-h<half>``), then ``inv-local-ntt``, which
    is charged the 1/G and 1/M scalings as two passes.
    """
    g = gpu_count
    if n < 2 * g:
        raise ValueError(f"pairwise engine needs n >= 2*G ({n} < {2 * g})")
    m = n // g
    eb = element_bytes
    w = _Writer(g, eb, g)
    local_muls = acct.local_ntt_muls(m) + acct.twiddle_muls(m)
    local_bytes = acct.local_ntt_mem_bytes(m, eb, tile)
    halves = [g >> i for i in range(1, g.bit_length())]
    pre = "inv-" if inverse else ""
    if not inverse:
        w.local("local-ntt", "local", local_muls, local_bytes)
    for half in reversed(halves) if inverse else halves:
        w.add(PairwiseOp, f"pairwise-{'inv' if inverse else 'stage'}-h{half}",
              f"{pre}stage-h{half}-recv", bytes_per_gpu=m * eb,
              partner_of=tuple(s ^ half for s in range(g)))
        w.local(f"{pre}pairwise-combine-h{half}", f"{pre}stage-h{half}-out",
                m, acct.pointwise_mem_bytes(m, eb), 2 * half)
    if inverse:
        w.local("inv-local-ntt", "cyclic", local_muls + 2 * m, local_bytes)
    return w.schedule("pairwise-exchange" + ("-inverse" if inverse else ""))


def build_baseline_schedule(n: int, gpu_count: int, element_bytes: int,
                            tile: int = 4096,
                            inverse: bool = False) -> CommSchedule:
    """The distributed four-step program: every pass and transpose.

    :class:`~repro.multigpu.baseline.BaselineFourStepEngine` executes
    and prices exactly this op list.  With ``n = rows * cols``
    (:func:`repro.ntt.fourstep.split_size`, both divisible by G): the
    transpose Block -> ColumnBlock (``baseline-T1``), the ``rows``-point
    column transforms (``col-ntt``, fanout ``rows``), a standalone
    twiddle sweep read through the block layout (``twiddle-pass``,
    fanout ``cols``), the transpose back (``baseline-T2``), the
    ``cols``-point row transforms (``row-ntt``) and the final
    transpose into natural block order (``baseline-T3``).  The inverse
    runs the ``inv-`` kernels in the same order; its two transforms
    scale by 1/rows and 1/cols, which is 1/n.
    """
    g = gpu_count
    rows, cols = split_size(n)
    if rows % g or cols % g:
        raise ValueError(
            f"baseline needs both factors of {n} = {rows}x{cols} "
            f"divisible by {g} GPUs (n >= {g * g * 4} suffices)")
    m = n // g
    eb = element_bytes
    block = BlockLayout(n=n, gpu_count=g)
    col_block = ColumnBlockLayout(n=n, gpu_count=g, rows=rows, cols=cols)
    w = _Writer(g, eb, g)
    pre = "inv-" if inverse else ""
    w.relayout("baseline-T1", block, col_block, "columns")
    w.local(f"{pre}col-ntt", "column-ntt",
            acct.small_batch_ntt_muls(cols // g, rows),
            2 * m * eb * acct.tile_passes(rows, tile), rows)
    w.local(f"{pre}twiddle-pass", "twiddled", acct.twiddle_muls(m),
            acct.pointwise_mem_bytes(m, eb), cols, block)
    w.relayout("baseline-T2", col_block, block, "rows")
    w.local(f"{pre}row-ntt", "row-ntt",
            acct.small_batch_ntt_muls(rows // g, cols),
            2 * m * eb * acct.tile_passes(cols, tile), cols)
    w.relayout("baseline-T3", block, TransposedBlockLayout(
        n=n, gpu_count=g, rows=rows, cols=cols), "natural")
    return w.schedule("baseline-fourstep" + ("-inverse" if inverse else ""))
