"""Distributed data layouts.

A layout is a bijection between global vector indices and (gpu, local)
slots.  Layout choice is *the* lever of multi-GPU NTT design:

* :class:`BlockLayout` — natural contiguous blocks; what producers hand
  you and what the conventional baseline works in.
* :class:`CyclicLayout` — index ``j`` lives on GPU ``j mod G``; the
  UniNTT input layout, under which the local sub-transforms need no
  communication at all.
* :class:`SpectralLayout` — the permuted order UniNTT's forward
  transform leaves its output in.  Keeping the output here (instead of
  materializing natural order) deletes one whole all-to-all; pointwise
  spectral operations are layout-agnostic, so ZKP pipelines never pay
  for the permutation.  This is the distributed face of the paper's
  "overhead-free decomposition".
* :class:`UniNTTExchangeLayout` — where an exchange leaves the data
  before its cross transforms.

These three are the stages of one recursion (:class:`UniNTTLayout`)
over the program's ``fanouts``, listed outermost first: ``(G,)`` on a
flat cluster, ``(N, P)`` for N nodes of P GPUs, and so on for any
depth.  A stage over k levels is the (k-1)-level stage of each outer
unit, lifted by the unit's digit; the one-level stages are the flat
engine's layouts.

Each layout states its map exactly once, as :meth:`Layout.global_index`.
Every layout here is a **bit permutation**: with ``m = n / G``, the slot
``s = gpu * m + local`` maps to the global index whose bits are the
log2 n bits of ``s``, permuted.  :attr:`Layout.slot_bits` recovers that
permutation by probing ``global_index`` at the single-bit slots (and
rejects a map that is not one), and everything else is derived from it:
:meth:`Layout.owner` is the inverse permutation, and
:meth:`Layout.shard_indices` tabulates every slot in O(n) by doubling.
The derivations are memoized on the frozen layout *value*, so two equal
layouts share them and two different ones never do.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Sequence

from repro.errors import PartitionError

__all__ = ["Layout", "BlockLayout", "UniNTTLayout", "CyclicLayout",
           "SpectralLayout", "UniNTTExchangeLayout", "ColumnBlockLayout",
           "TransposedBlockLayout", "distribute", "collect"]


@dataclass(frozen=True)
class Layout:
    """Base class: a size-n vector split over ``gpu_count`` equal shards."""

    n: int
    gpu_count: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.n & (self.n - 1):
            raise PartitionError(f"layout size must be a power of two, "
                                 f"got {self.n}")
        if self.gpu_count < 1 or self.gpu_count & (self.gpu_count - 1):
            raise PartitionError(f"gpu_count must be a power of two, "
                                 f"got {self.gpu_count}")
        if self.n < self.gpu_count:
            raise PartitionError(
                f"cannot split {self.n} elements over {self.gpu_count} GPUs")

    @property
    def shard_size(self) -> int:
        return self.n // self.gpu_count

    def global_index(self, gpu: int, local: int) -> int:
        """Global index stored at slot (gpu, local): the layout's map."""
        raise NotImplementedError

    @property
    @lru_cache(maxsize=256)
    def slot_bits(self) -> tuple[int, ...]:
        """Global bit position of each bit of slot ``gpu * m + local``.

        Found by probing :meth:`global_index` at the single-bit slots;
        a map that is not a bit permutation is rejected.
        """
        m, g = self.shard_size, self.gpu_count
        slots = ([(0, 1 << bit) for bit in range(m.bit_length() - 1)]
                 + [(1 << bit, 0) for bit in range(g.bit_length() - 1)])
        images = [self.global_index(gpu, local) for gpu, local in slots]
        bits = tuple(j.bit_length() - 1 for j in images)
        if (self.global_index(0, 0) != 0
                or any(j < 1 or j & (j - 1) for j in images)
                or len(set(bits)) != len(bits)):
            raise PartitionError(
                f"{self!r} is not a bit permutation of its slots")
        return bits

    def owner(self, global_index: int) -> tuple[int, int]:
        """Map a global index to its (gpu, local index) slot."""
        self._check_global(global_index)
        slot = 0
        for bit, image in enumerate(self.slot_bits):
            slot |= (global_index >> image & 1) << bit
        return divmod(slot, self.shard_size)

    @lru_cache(maxsize=32)
    def shard_indices(self) -> tuple[tuple[int, ...], ...]:
        """Per GPU, the global index of every local slot, in local order.

        Built in O(n) by doubling over the slot bits.
        """
        table = [0]
        for image in self.slot_bits:
            table += [j | 1 << image for j in table]
        m = self.shard_size
        return tuple(tuple(table[gpu * m:(gpu + 1) * m])
                     for gpu in range(self.gpu_count))

    def _check_global(self, global_index: int) -> None:
        if not 0 <= global_index < self.n:
            raise PartitionError(
                f"global index {global_index} out of range [0, {self.n})")

    def _check_slot(self, gpu: int, local: int) -> None:
        if not 0 <= gpu < self.gpu_count:
            raise PartitionError(f"gpu {gpu} out of range")
        if not 0 <= local < self.shard_size:
            raise PartitionError(f"local index {local} out of range")


class BlockLayout(Layout):
    """GPU g holds the contiguous block [g*m, (g+1)*m)."""

    def global_index(self, gpu: int, local: int) -> int:
        self._check_slot(gpu, local)
        return gpu * self.shard_size + local


def _stage_index(n: int, fanouts: tuple[int, ...], level: int | None,
                 gpu: int, local: int) -> int:
    """Global index at slot (gpu, local) of one stage of the recursion.

    The stage is the input (``level`` None) or the spectrum after
    ``level``'s cross transforms (levels count from the innermost, 0).
    Peels the outermost level ``f = fanouts[0]``: GPU
    ``unit * G' + gpu'`` is GPU ``gpu'`` of outer unit ``unit``, whose
    ``n / f`` points sit in the stage of the recursion over the inner
    fanouts.  No fanouts left: one GPU, slot ``local`` is index
    ``local``.
    """
    if not fanouts:
        return local
    f, inner = fanouts[0], fanouts[1:]
    sub_n = n // f
    g = prod(fanouts)
    unit, gpu = divmod(gpu, g // f)
    if level is None:
        # Unit u holds the cyclic sub-sequence j = j' * f + u.
        return _stage_index(sub_n, inner, None, gpu, local) * f + unit
    if level < len(inner):
        # An inner level: each unit's own spectrum, unit after unit.
        return unit * sub_n + _stage_index(sub_n, inner, level, gpu, local)
    # This level: unit u keeps chunk u of its GPU's slots of the inner
    # spectrum, with the f values over the outer digit of each
    # contiguous, index ``digit * n/f + k``.
    pos, digit = divmod(local, f)
    return digit * sub_n + _stage_index(
        sub_n, inner, level - 1, gpu, unit * (n // (g * f)) + pos)


@dataclass(frozen=True)
class UniNTTLayout(Layout):
    """Base of UniNTT's stage layouts: one recursion over ``fanouts``.

    ``fanouts`` lists the levels outermost first and multiplies to G:
    ``(G,)`` for a flat cluster (the default), ``(N, P)`` for N nodes
    of P GPUs.  Every stage's slot map is :func:`_stage_index`: the
    layout over k levels is the (k-1)-level layout of each outer unit's
    ``n / fanouts[0]`` points, lifted by the unit's digit.  The one-level
    members are the flat engine's layouts.
    """

    fanouts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        fanouts = tuple(self.fanouts) or (self.gpu_count,)
        object.__setattr__(self, "fanouts", fanouts)
        if (any(f < 1 or f & (f - 1) for f in fanouts)
                or prod(fanouts) != self.gpu_count):
            raise PartitionError(
                f"fanouts {fanouts} do not split {self.gpu_count} GPUs "
                f"into power-of-two levels")


class CyclicLayout(UniNTTLayout):
    """UniNTT's input order: on one level, GPU g holds every G-th
    element, ``j = local * G + g``.

    Over more levels, outer unit ``u`` holds the cyclic sub-sequence
    ``j = j' * fanouts[0] + u`` in the inner levels' cyclic layout, so
    every level's local transforms touch only local data.
    """

    def global_index(self, gpu: int, local: int) -> int:
        self._check_slot(gpu, local)
        return _stage_index(self.n, self.fanouts, None, gpu, local)


@dataclass(frozen=True)
class SpectralLayout(UniNTTLayout):
    """The spectrum after level ``level``'s cross transforms.

    Levels count from the innermost (0, the first to run); the default,
    the last level, is the order UniNTT's forward transform leaves its
    output in.  On one level, with ``M = n / G``, spectrum index ``k``
    splits as ``k = k1 + M*k2`` (``k1 < M``, ``k2 < G``); GPU ``t`` owns
    the k1-chunk ``[t*M/G, (t+1)*M/G)`` and stores, for each of its k1
    values, the full G-vector over k2 contiguously::

        gpu   = k1 // (M/G)
        local = (k1 % (M/G)) * G + k2

    Over more levels, an inner level's spectrum is each outer unit's,
    unit after unit (``k = u * n/f + k'``, ``f = fanouts[0]``), and the
    outermost level splits each GPU's slots of the inner spectrum into
    f chunks, one per outer unit, storing the f values over ``k2`` of
    each slot contiguously (``k = k2 * n/f + k'``).  Each level needs
    ``n >= G * f`` for its fanout f and every inner one, so the chunks
    are non-empty: ``n >= G^2`` on one level.
    """

    level: int = -1

    def __post_init__(self) -> None:
        super().__post_init__()
        depth = len(self.fanouts)
        if not -depth <= self.level < depth:
            raise PartitionError(
                f"level {self.level} out of range for {depth} levels")
        object.__setattr__(self, "level", self.level % depth)
        widest = max(self.fanouts[depth - 1 - self.level:])
        if self.n < self.gpu_count * widest:
            raise PartitionError(
                f"{type(self).__name__} needs n >= G^2 on one level, "
                f"G times the widest fanout up to its level on more "
                f"({self.n} < {self.gpu_count}*{widest})")

    @property
    def span(self) -> int:
        """Points of each independent sub-spectrum the stage holds, unit
        after unit: n over the fanouts of the levels outside it."""
        return self.n // prod(self.fanouts[:len(self.fanouts) - 1
                                           - self.level])

    @property
    def chunk(self) -> int:
        """Inner-spectrum slots each GPU keeps per outer digit: n over
        G times this level's fanout (``M / G`` on one level)."""
        return self.n // (self.gpu_count
                          * self.fanouts[len(self.fanouts) - 1 - self.level])

    def global_index(self, gpu: int, local: int) -> int:
        self._check_slot(gpu, local)
        return _stage_index(self.n, self.fanouts, self.level, gpu, local)


class UniNTTExchangeLayout(SpectralLayout):
    """Where a level's all-to-all leaves the data, before its cross
    transforms.

    The slot map of :class:`SpectralLayout` at the same level, with the
    outer digit read as the *unit* ``s`` that produced the value instead
    of the spectrum digit ``k2``: on one level the index is the
    unit-major ``j = s * M + k1`` of the locally transformed data.  The
    in-place cross transform over each f-group turns one into the
    other.
    """


@dataclass(frozen=True)
class ColumnBlockLayout(Layout):
    """Column blocks of an R x C row-major matrix.

    The global index space is the flat row-major matrix position
    ``j = r * cols + c``.  GPU ``t`` owns the column block
    ``[t * cols/G, (t+1) * cols/G)`` and stores each column contiguously
    (column-major locally): ``local = (c % (cols/G)) * rows + r``.  This
    is the intermediate layout of the baseline's transpose: column
    transforms become local and contiguous.
    """

    rows: int = 0
    cols: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.rows * self.cols != self.n:
            raise PartitionError(
                f"{self.rows}x{self.cols} does not factor n={self.n}")
        if self.cols % self.gpu_count:
            raise PartitionError(
                f"{self.cols} columns do not split over "
                f"{self.gpu_count} GPUs")

    @property
    def cols_per_gpu(self) -> int:
        return self.cols // self.gpu_count

    def global_index(self, gpu: int, local: int) -> int:
        self._check_slot(gpu, local)
        c_local, r = divmod(local, self.rows)
        c = gpu * self.cols_per_gpu + c_local
        return r * self.cols + c


@dataclass(frozen=True)
class TransposedBlockLayout(Layout):
    """Natural-order blocks of the *transposed* matrix.

    The global index space is again the flat row-major R x C matrix
    position ``j = k1 * cols + k2``; the transform output index is
    ``k = k1 + rows * k2``.  GPU ``t`` owns the k-block
    ``[t * n/G, (t+1) * n/G)`` at local offset ``k % (n/G)`` — i.e. the
    result of the baseline's final transpose into natural block order.
    """

    rows: int = 0
    cols: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.rows * self.cols != self.n:
            raise PartitionError(
                f"{self.rows}x{self.cols} does not factor n={self.n}")

    def global_index(self, gpu: int, local: int) -> int:
        self._check_slot(gpu, local)
        k = gpu * self.shard_size + local
        k2, k1 = divmod(k, self.rows)
        return k1 * self.cols + k2


def distribute(values: Sequence[int], layout: Layout) -> list[list[int]]:
    """Split a global vector into per-GPU shards under ``layout``."""
    if len(values) != layout.n:
        raise PartitionError(
            f"layout is for {layout.n} elements, got {len(values)}")
    return [[values[j] for j in indices]
            for indices in layout.shard_indices()]


def collect(shards: Sequence[Sequence[int]], layout: Layout) -> list[int]:
    """Reassemble the global vector from shards under ``layout``."""
    if len(shards) != layout.gpu_count:
        raise PartitionError(
            f"layout is for {layout.gpu_count} GPUs, got {len(shards)}")
    out = [0] * layout.n
    for gpu, (shard, indices) in enumerate(
            zip(shards, layout.shard_indices())):
        if len(shard) != layout.shard_size:
            raise PartitionError(
                f"GPU {gpu} shard has {len(shard)} elements, layout "
                f"expects {layout.shard_size}")
        for j, value in zip(indices, shard):
            out[j] = value
    return out
