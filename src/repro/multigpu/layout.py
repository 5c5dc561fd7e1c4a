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
* The nested layouts (:class:`NestedCyclicLayout` in,
  :class:`NestedSpectralLayout` out, and the node-level intermediates)
  — the same maps recursed once over N nodes of P GPUs, for the
  two-level UniNTT program.

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
from typing import Sequence

from repro.errors import PartitionError

__all__ = ["Layout", "BlockLayout", "CyclicLayout", "SpectralLayout",
           "ColumnBlockLayout", "TransposedBlockLayout",
           "UniNTTExchangeLayout", "NestedCyclicLayout",
           "IntraNodeExchangeLayout", "NodeSpectralLayout",
           "InterNodeExchangeLayout", "NestedSpectralLayout",
           "distribute", "collect"]


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


class CyclicLayout(Layout):
    """GPU g holds every G-th element: global j = local * G + g."""

    def global_index(self, gpu: int, local: int) -> int:
        self._check_slot(gpu, local)
        return local * self.gpu_count + gpu


class SpectralLayout(Layout):
    """UniNTT forward-output order.

    With ``M = n / G``, spectrum index ``k`` splits as ``k = k1 + M*k2``
    (``k1 < M``, ``k2 < G``).  GPU ``t`` owns the k1-chunk
    ``[t*M/G, (t+1)*M/G)`` and stores, for each of its k1 values, the
    full G-vector over k2 contiguously::

        gpu   = k1 // (M/G)
        local = (k1 % (M/G)) * G + k2

    Requires ``n >= G^2`` so the chunks are non-empty.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n < self.gpu_count * self.gpu_count:
            raise PartitionError(
                f"{type(self).__name__} needs n >= G^2 "
                f"({self.n} < {self.gpu_count}^2)")

    @property
    def chunk(self) -> int:
        """k1 values per GPU: M / G."""
        return self.n // (self.gpu_count * self.gpu_count)

    def global_index(self, gpu: int, local: int) -> int:
        self._check_slot(gpu, local)
        k2 = local % self.gpu_count
        k1 = gpu * self.chunk + local // self.gpu_count
        return k1 + self.shard_size * k2


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


@dataclass(frozen=True)
class UniNTTExchangeLayout(SpectralLayout):
    """Post-exchange layout of UniNTT's single all-to-all.

    The global index space is the "unit-major" position ``j = s * M + k1``
    of the locally-transformed data (unit ``s`` produced spectrum slot
    ``k1``).  After the exchange, GPU ``t`` owns the k1-chunk
    ``[t * M/G, (t+1) * M/G)`` with the G values over ``s`` for each k1
    stored contiguously: ``local = (k1 % chunk) * G + s``.  That is the
    slot map of :class:`SpectralLayout` with ``k2`` read as ``s``: the
    in-place cross NTT over each G-group turns one into the other.
    """


@dataclass(frozen=True)
class _NodeStructured(Layout):
    """Base for layouts over an N-node, P-GPUs-per-node cluster."""

    nodes: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.nodes < 1 or self.nodes & (self.nodes - 1):
            raise PartitionError(
                f"nodes must be a power of two, got {self.nodes}")
        if self.gpu_count % self.nodes:
            raise PartitionError(
                f"{self.gpu_count} GPUs do not split into {self.nodes} nodes")

    @property
    def gpus_per_node(self) -> int:
        return self.gpu_count // self.nodes

    @property
    def node_size(self) -> int:
        """Elements per node: M = n / N."""
        return self.n // self.nodes


class NestedCyclicLayout(_NodeStructured):
    """Input order: ``j = (q*P + s_gpu)*N + s_node``.

    GPU ``(s_node, s_gpu)`` holds the doubly-cyclic sub-sequence, so
    both recursion levels' local transforms touch only local data.
    """

    def global_index(self, gpu: int, local: int) -> int:
        self._check_slot(gpu, local)
        n_nodes, p = self.nodes, self.gpus_per_node
        s_node, s_gpu = divmod(gpu, p)
        return (local * p + s_gpu) * n_nodes + s_node


class NodeSpectralLayout(_NodeStructured):
    """Per-node spectra after the intra-node cross transforms.

    Index space: ``v = s_node * M + k1`` with ``k1 = k1' + L*k2_gpu``
    (``L = M/P = m``).  Within node ``s_node``, GPU column ``t_gpu`` owns
    the k1'-chunk ``[t_gpu*L/P, ...)``, storing ``local = (k1' % (L/P))*P
    + k2_gpu`` — the per-node instance of
    :class:`~repro.multigpu.layout.SpectralLayout`.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        p = self.gpus_per_node
        if self.node_size < p * p:
            raise PartitionError(
                f"{type(self).__name__} needs M >= P^2 "
                f"({self.node_size} < {p}^2)")

    @property
    def chunk(self) -> int:
        """k1' values per GPU column: L / P."""
        return self.node_size // (self.gpus_per_node ** 2)

    def global_index(self, gpu: int, local: int) -> int:
        self._check_slot(gpu, local)
        p = self.gpus_per_node
        m_node = self.node_size
        l_local = m_node // p
        s_node, t_gpu = divmod(gpu, p)
        offset, k2_gpu = divmod(local, p)
        k1 = t_gpu * self.chunk + offset + l_local * k2_gpu
        return s_node * m_node + k1


class IntraNodeExchangeLayout(NodeSpectralLayout):
    """Target of the intra-node all-to-all, in unit-major index space.

    Index space: ``u = (s_node*P + s_gpu) * m + k1'`` (the physical
    order after the local transforms).  Within node ``s_node``, GPU
    column ``t_gpu`` receives the k1'-chunk ``[t_gpu*m/P, ...)`` from
    its node's P GPUs, storing the P-vector over ``s_gpu`` contiguously:
    ``local = (k1' % (m/P)) * P + s_gpu``.  That is the slot map of
    :class:`NodeSpectralLayout` with ``k2_gpu`` read as ``s_gpu``: the
    in-place P-point cross transform turns one into the other.  Traffic
    never crosses a node boundary.
    """


class NestedSpectralLayout(_NodeStructured):
    """Final spectrum order: ``k = k1 + M * k2_node``.

    Splits each GPU column's m spectrum slots into N sub-chunks of
    ``m/N``, storing the N-vector over ``k2_node`` contiguously.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        p = self.gpus_per_node
        if self.node_size < p * p:
            raise PartitionError(
                f"layout needs M >= P^2 ({self.node_size} < {p}^2)")
        if self.shard_size % self.nodes:
            raise PartitionError(
                f"shard of {self.shard_size} does not split into "
                f"{self.nodes} node sub-chunks (need n >= N^2 * P)")

    @property
    def sub(self) -> int:
        """Spectrum slots per (GPU, node sub-chunk): m / N."""
        return self.shard_size // self.nodes

    def global_index(self, gpu: int, local: int) -> int:
        self._check_slot(gpu, local)
        p = self.gpus_per_node
        l_local = self.node_size // p
        t_node, t_gpu = divmod(gpu, p)
        pos, k2_node = divmod(local, self.nodes)
        offset, k2_gpu = divmod(t_node * self.sub + pos, p)
        k1 = t_gpu * (l_local // p) + offset + l_local * k2_gpu
        return k2_node * self.node_size + k1


class InterNodeExchangeLayout(NestedSpectralLayout):
    """Index space ``v = s_node * M + k1`` after the inter-node
    all-to-all: GPU ``(t_node, t_gpu)`` holds, for each k1 in its
    sub-chunk, the N values over ``s_node`` contiguously — the slot map
    of :class:`NestedSpectralLayout` with ``k2_node`` read as
    ``s_node``, which the in-place N-point cross transform turns into
    the final spectrum order."""


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
