"""Distributed vectors, redistribution, and the engine interface.

:func:`redistribute` is the universal communication step: given the
layout the data is in and the layout the next compute phase needs, it
builds the personalized all-to-all that moves every element to its new
slot.  All of the baseline's transposes and UniNTT's single exchange are
instances of it, which keeps the engines short and makes the byte
accounting uniform.

Because every layout is a bit permutation of its slots (see
:mod:`repro.multigpu.layout`), so is every relayout between two of
them.  Both views of a relayout come from that one permutation: the
memoized :func:`relayout_plan` that :func:`redistribute` (and the
schedule interpreter's staged exchange) executes, and the closed-form
O(G^2) :func:`exchange_counts` that prices it without touching the
elements.

Which GPU a value sits on is accounting only, so :func:`local_step`
runs one local kernel step of every GPU as one host kernel over the
concatenated shards, with its constant per-GPU tables memoized by
:func:`twiddle_table`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable, Sequence

from repro.errors import PartitionError, SimulationError
from repro.field.prime_field import PrimeField
from repro.hw.cost import CostBreakdown, CostModel, Step
from repro.hw.model import MachineModel
from repro.multigpu.layout import Layout, collect, distribute
from repro.ntt.batch import StepTable, ntt_groups
from repro.ntt.twiddle import default_cache
from repro.sim.cluster import SimCluster
from repro.sim.trace import TraceEvent

__all__ = ["DistributedVector", "VectorCheckpoint", "RelayoutPlan",
           "relayout_plan", "redistribute", "exchange_counts",
           "twiddle_table", "local_step", "DistributedNTTEngine"]


@dataclass(frozen=True)
class VectorCheckpoint:
    """Host-resident snapshot of a distributed vector's logical values.

    Layout-independent on purpose: the values are stored in logical
    index order, so a checkpoint taken on one cluster restores onto a
    *different* cluster shape (the graceful-degradation path after a
    device death re-shards from exactly such a snapshot).

    ``form`` and ``coset_shift`` carry the pipeline position of a
    :class:`repro.multigpu.polynomial.DistributedPolynomial` snapshot:
    a checkpoint taken mid-pipeline on a coset-shifted evaluation
    vector (packed or not) restores into the identical state instead
    of silently forgetting which domain its values live on.  Plain
    vector checkpoints leave both ``None``.
    """

    values: tuple[int, ...]
    form: str | None = None
    coset_shift: int | None = None

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass
class DistributedVector:
    """A logical vector living in a cluster's shards under a layout."""

    cluster: SimCluster
    layout: Layout

    def __post_init__(self) -> None:
        if self.layout.gpu_count != self.cluster.gpu_count:
            raise PartitionError(
                f"layout is for {self.layout.gpu_count} GPUs, cluster has "
                f"{self.cluster.gpu_count}")

    @property
    def n(self) -> int:
        return self.layout.n

    @classmethod
    def from_values(cls, cluster: SimCluster, values: Sequence[int],
                    layout: Layout) -> "DistributedVector":
        """Stage a host vector into the cluster under ``layout``.

        ``values`` may be a plain int sequence or a packed backend
        array (uint64 lanes, or the multi-limb planes the big ZKP
        fields use); packed forms are unpacked at this boundary so
        shards — and the checkpoints taken from them — always hold
        plain ints regardless of the active compute backend.  The
        values are normalized once, here; the shards are installed
        directly, as :func:`redistribute` installs its assembled ones.
        """
        from repro.field.vector import host_values

        vec = cls(cluster=cluster, layout=layout)
        shards = distribute(host_values(cluster.field, values), layout)
        for gpu, shard in zip(cluster.gpus, shards):
            gpu.shard = shard
        return vec

    def to_values(self) -> list[int]:
        """Reassemble the global vector (diagnostic; charges nothing)."""
        return collect(self.cluster.peek_shards(), self.layout)

    def relayout(self, target: Layout, detail: str = "") -> "DistributedVector":
        """Move to another layout with one counted all-to-all."""
        redistribute(self.cluster, self.layout, target, detail=detail)
        return DistributedVector(cluster=self.cluster, layout=target)

    def checkpoint(self) -> VectorCheckpoint:
        """Snapshot the logical vector to the host (traced, not charged).

        The snapshot is recorded as a ``checkpoint`` trace event on the
        ``resilience`` level; the resilient execution layer prices the
        host write as an overhead phase.
        """
        eb = self.cluster.element_bytes
        self.cluster.trace.record(TraceEvent(
            kind="checkpoint", level="resilience",
            max_bytes_per_gpu=self.layout.shard_size * eb,
            total_bytes=self.n * eb, detail=f"n={self.n}"))
        return VectorCheckpoint(values=tuple(self.to_values()))

    @classmethod
    def restore(cls, cluster: SimCluster, checkpoint: VectorCheckpoint,
                layout: Layout) -> "DistributedVector":
        """Re-stage a checkpoint under ``layout`` (host staging).

        The target cluster may have a different GPU count than the one
        the checkpoint was taken on — the snapshot is logical values,
        not shards.
        """
        if layout.n != checkpoint.n:
            raise PartitionError(
                f"checkpoint holds {checkpoint.n} values, layout "
                f"expects {layout.n}")
        return cls.from_values(cluster, list(checkpoint.values), layout)


def _check_pair(source: Layout, target: Layout) -> None:
    if source.n != target.n or source.gpu_count != target.gpu_count:
        raise PartitionError(
            f"layout mismatch: {source.n}/{source.gpu_count} vs "
            f"{target.n}/{target.gpu_count}")


def _relayout_bits(source: Layout, target: Layout) -> tuple[
        list[tuple[int, int]], list[tuple[int, int]],
        list[tuple[int, int]]]:
    """Sort the target's slot bits by where ``source`` holds them.

    Returns ``stay``, the (target-local, source-local) bit pairs both
    hold locally; ``pick``, every (destination-local offset, source GPU
    offset) the other target-local bits spell; and ``bases``, per
    destination GPU, the (source GPU, source-local) bits it fixes.
    """
    _check_pair(source, target)
    c = source.shard_size.bit_length() - 1
    slot_of = {image: bit for bit, image in enumerate(source.slot_bits)}
    sigma = [slot_of[image] for image in target.slot_bits]
    stay = [(bit, image) for bit, image in enumerate(sigma[:c]) if image < c]
    pick = [(0, 0)]
    for bit, image in enumerate(sigma[:c]):
        if image >= c:
            pick += [(x | 1 << bit, y | 1 << (image - c)) for x, y in pick]
    bases = []
    for dst in range(source.gpu_count):
        src_base = local_base = 0
        for bit, image in enumerate(sigma[c:]):
            if dst >> bit & 1:
                if image < c:
                    local_base |= 1 << image
                else:
                    src_base |= 1 << (image - c)
        bases.append((src_base, local_base))
    return stay, pick, bases


@dataclass(frozen=True)
class RelayoutPlan:
    """The messages of one relayout, each in destination-slot order.

    ``sends[src][dst]`` are the source-local indices GPU ``src`` ships
    to GPU ``dst``; ``lands[src][dst]`` the destination-local indices
    they land in.
    """

    sends: tuple[tuple[tuple[int, ...], ...], ...]
    lands: tuple[tuple[tuple[int, ...], ...], ...]

    def outboxes(self, shards: Sequence[Sequence[int]]
                 ) -> list[list[list[int]]]:
        """Per-(src, dst) messages gathered from the source shards."""
        return [[[shard[i] for i in indices] for indices in row]
                for shard, row in zip(shards, self.sends)]

    def assemble(self, dst: int,
                 messages: Sequence[Sequence[int]]) -> list[int]:
        """GPU ``dst``'s new shard from its messages, indexed by src."""
        shard = [0] * sum(map(len, messages))
        for row, message in zip(self.lands, messages):
            for local, value in zip(row[dst], message):
                shard[local] = value
        return shard


@lru_cache(maxsize=32)
def relayout_plan(source: Layout, target: Layout) -> RelayoutPlan:
    """The :class:`RelayoutPlan` moving ``source`` to ``target``, in O(n).

    Each message enumerates the target-local bits that stay local,
    offset by the bits its (src, dst) pair fixes.
    """
    g = source.gpu_count
    stay, pick, bases = _relayout_bits(source, target)
    # Doubling enumerates the staying bits in ascending target order.
    stay_dst, stay_src = [0], [0]
    for bit, image in stay:
        stay_dst += [x | 1 << bit for x in stay_dst]
        stay_src += [y | 1 << image for y in stay_src]
    landing = [tuple([offset | x for x in stay_dst]) for offset, _ in pick]
    empty: tuple[int, ...] = ()
    sends = [[empty] * g for _ in range(g)]
    lands = [[empty] * g for _ in range(g)]
    for dst, (src_base, local_base) in enumerate(bases):
        sent = tuple([local_base | y for y in stay_src])
        for (_, src_offset), landed in zip(pick, landing):
            sends[src_base | src_offset][dst] = sent
            lands[src_base | src_offset][dst] = landed
    return RelayoutPlan(sends=tuple(map(tuple, sends)),
                        lands=tuple(map(tuple, lands)))


def redistribute(cluster: SimCluster, source: Layout, target: Layout,
                 detail: str = "") -> None:
    """One all-to-all moving every element from ``source`` to ``target``.

    Both layouts must cover the same global index space.  Executes the
    memoized :func:`relayout_plan` of the pair, so each (src, dst)
    message is ordered by destination local index.
    """
    _check_pair(source, target)
    g = cluster.gpu_count
    if source.gpu_count != g:
        raise PartitionError(
            f"layouts are for {source.gpu_count} GPUs, cluster has {g}")
    plan = relayout_plan(source, target)
    inboxes = cluster.all_to_all(
        plan.outboxes([gpu.shard for gpu in cluster.gpus]),
        detail=detail or f"{type(source).__name__}->"
                         f"{type(target).__name__}")
    for dst in range(g):
        cluster.gpus[dst].shard = plan.assemble(dst, inboxes[dst])


def exchange_counts(source: Layout, target: Layout) -> list[list[int]]:
    """Element counts of the all-to-all :func:`redistribute` would run.

    ``counts[src][dst]`` is how many elements GPU ``src`` sends to GPU
    ``dst`` when moving from ``source`` to ``target``.  Closed form in
    O(G^2): the target's GPU bits fix some of the source's GPU bits, and
    every source GPU consistent with them sends ``2^k`` elements, ``k``
    the number of target-local bits that land in source-local bits.  The
    packed execution path prices its (host-resident) layout changes
    through :meth:`repro.sim.cluster.SimCluster.charge_all_to_all` with
    exactly these counts, so the two paths are byte-identical in the
    trace.
    """
    g = source.gpu_count
    stay, pick, bases = _relayout_bits(source, target)
    per_pair = 1 << len(stay)
    counts = [[0] * g for _ in range(g)]
    for dst, (src_base, _) in enumerate(bases):
        for _, src_offset in pick:
            counts[src_base | src_offset][dst] = per_pair
    return counts


def twiddle_table(field: PrimeField, base: int, exponents: Iterable[int],
                  width: int, layout: Layout | None = None) -> StepTable:
    """Per-GPU power tables as one :class:`~repro.ntt.batch.StepTable`.

    Row ``r`` holds ``base^(exponents[r] * j)`` for ``j < width``, and
    the rows are concatenated; with ``exponents = range(G)`` that is
    every GPU's twiddle table ``root^(s*j)``, GPU-major.  With
    ``layout``, slot ``(gpu, local)`` of the result holds entry
    ``layout.global_index(gpu, local)`` of the rows instead.  Memoized
    process-wide (bounded LRU) on the table's full identity: modulus,
    base, exponents, width and layout; the table keeps its own packed
    mirrors per lane format.
    """
    p = field.modulus
    return _twiddle_table(p, base % p, tuple(exponents), width, layout)


@lru_cache(maxsize=16)
def _twiddle_table(p: int, base: int, exponents: tuple[int, ...],
                   width: int, layout: Layout | None) -> StepTable:
    rows: dict[int, list[int]] = {}
    for e in exponents:
        if e not in rows:
            step, acc, row = pow(base, e, p), 1, []
            for _ in range(width):
                row.append(acc)
                acc = acc * step % p
            rows[e] = row
    table = [v for e in exponents for v in rows[e]]
    if layout is not None:
        table = [table[i] for i in chain.from_iterable(
            layout.shard_indices())]
    return StepTable(table)


def local_step(cluster: SimCluster, size: int = 1, root: int = 1, *,
               pre: StepTable | None = None, post: StepTable | None = None,
               scale: int | None = None) -> None:
    """Run one local kernel step of every GPU as one host kernel.

    Concatenates the shards GPU-major, multiplies by ``pre``,
    transforms every contiguous ``size``-group with ``root``, multiplies
    by ``post`` and ``scale`` (one :func:`~repro.ntt.batch.ntt_groups`
    call), and writes each GPU's slice back to its shard.  ``size`` 1
    applies the tables only.  The groups must not straddle GPUs, so
    ``size`` must divide the shard size.  Charges nothing: callers
    charge each GPU for its share, as if it ran its own kernel.
    """
    gpus = cluster.gpus
    m = len(gpus[0].shard)
    for gpu in gpus:
        gpu.require_shard(m)
    if m % size:
        raise PartitionError(
            f"group size {size} does not divide the shard size {m}")
    out = ntt_groups(cluster.field,
                     list(chain.from_iterable(gpu.shard for gpu in gpus)),
                     size, root, scale=scale, cache=default_cache,
                     pre=pre, post=post)
    for i, gpu in enumerate(gpus):
        gpu.shard = out[i * m:(i + 1) * m]


class DistributedNTTEngine(ABC):
    """Interface shared by all multi-GPU NTT engines.

    An engine is bound to a cluster (the functional side) and exposes a
    phase profile (the analytic side): its program's steps for a
    :class:`~repro.multigpu.unintt.ProgramEngine`, a closed form
    otherwise.  ``tile`` is the
    fast-memory tile size for local transform passes — the number of
    elements a thread block can stage, which sets how many global-memory
    round trips a local transform needs.
    """

    #: Engine display name (overridden by subclasses).
    name: str = "abstract"

    def __init__(self, cluster: SimCluster, tile: int = 4096):
        if tile < 2 or tile & (tile - 1):
            raise SimulationError(
                f"tile must be a power of two >= 2, got {tile}")
        self.cluster = cluster
        self.tile = tile

    @property
    def field(self) -> PrimeField:
        return self.cluster.field

    @property
    def gpu_count(self) -> int:
        return self.cluster.gpu_count

    # -- functional interface ------------------------------------------------

    @abstractmethod
    def input_layout(self, n: int) -> Layout:
        """The layout this engine expects its input in."""

    @abstractmethod
    def output_layout(self, n: int) -> Layout:
        """The layout this engine leaves its forward output in."""

    @abstractmethod
    def forward(self, vec: DistributedVector) -> DistributedVector:
        """Forward NTT of a distributed vector (counted)."""

    @abstractmethod
    def inverse(self, vec: DistributedVector) -> DistributedVector:
        """Inverse NTT (counted); accepts the forward output layout."""

    # -- analytic interface ------------------------------------------------------

    @abstractmethod
    def forward_profile(self, n: int) -> list[Step]:
        """Per-GPU phase profile of :meth:`forward`."""

    def inverse_profile(self, n: int) -> list[Step]:
        """Profile of :meth:`inverse`; symmetric by default."""
        return self.forward_profile(n)

    def estimate(self, machine: MachineModel, n: int,
                 inverse: bool = False) -> CostBreakdown:
        """Price one transform of size n on ``machine``."""
        model = CostModel(machine, self.field)
        profile = self.inverse_profile(n) if inverse \
            else self.forward_profile(n)
        return model.estimate(profile)

    # -- shared helpers ------------------------------------------------------------

    def _check_input(self, vec: DistributedVector, expected: Layout) -> None:
        if type(vec.layout) is not type(expected) or vec.layout != expected:
            raise PartitionError(
                f"{self.name} expects {expected!r}, got {vec.layout!r}")
