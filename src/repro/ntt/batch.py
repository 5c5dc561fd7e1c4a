"""Batched NTTs.

Proof systems transform many same-size polynomials at once (one per
witness column / quotient chunk), and every local step of a multi-GPU
engine is a batch (G local M-point transforms, or each GPU's M/G cross
transforms of G points); GPU implementations exploit both by launching
one batched kernel that amortizes twiddle loads and fills the machine.
:func:`ntt_groups` is that kernel: it transforms every contiguous
``size``-group of a flat vector in one call, with the step's constant
:class:`StepTable` multipliers fused in before and after.
:class:`BatchTransform` treats "B transforms of size n" as a single
workload on top of it.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import NTTError
from repro.field.backend import sized_lane_ops
from repro.field.prime_field import PrimeField
from repro.field.vector import vec_mul, vec_scale
from repro.ntt import radix2
from repro.ntt.twiddle import TwiddleCache, default_cache

__all__ = ["batch_ntt", "batch_intt", "BatchTransform", "StepTable",
           "ntt_groups", "ntt_lanes", "LaneBlock", "LaneRow"]


class StepTable:
    """A constant full-length multiplier table for :func:`ntt_groups`.

    Holds the canonical int ``values`` and, per (modulus, lane format),
    the packed mirror a lane backend multiplies by, so a step that
    reuses one table packs it once, not once per call.
    """

    __slots__ = ("values", "_packed")

    def __init__(self, values: Sequence[int]) -> None:
        self.values = tuple(values)
        self._packed: dict[tuple[int, str], object] = {}

    def __len__(self) -> int:
        return len(self.values)

    def packed(self, ops):
        """The table packed for ``ops`` (see ``pack_coefficients``)."""
        from repro.field.packed import pack_coefficients, table_format

        key = (ops.field.modulus, table_format(ops))
        table = self._packed.get(key)
        if table is None:
            table = self._packed[key] = pack_coefficients(ops, self.values)
        return table

    def exit(self, ops, groups: int, scale: int | None):
        """The table as a transform exit operand (see ``folds_exit``).

        The ``pack_table`` mirror, permuted from group-major to the
        size-major order a batch of ``groups`` transforms leaves its
        output in, and times ``scale`` if given.
        """
        p = ops.field.modulus
        key = (p, ops.fmt, groups, None if scale is None else scale % p)
        table = self._packed.get(key)
        if table is None:
            table = self.packed(ops)
            if groups > 1:
                lead, n = table.shape[:-1], table.shape[-1]
                table = table.reshape(lead + (groups, n // groups)) \
                    .swapaxes(-1, -2).reshape(lead + (n,))
            if scale is not None:
                table = ops.scale(table, scale % p)
            table = self._packed[key] = table
        return table


def ntt_groups(field: PrimeField, values: Sequence[int], size: int,
               root: int, scale: int | None = None,
               cache: TwiddleCache | None = None,
               pre: StepTable | None = None,
               post: StepTable | None = None) -> list[int]:
    """Forward NTT of every contiguous ``size``-group of ``values``.

    ``root`` is a primitive ``size``-th root of unity (the forward root,
    or its inverse for an inverse transform); ``pre`` and ``post``, if
    given, are full-length tables multiplied in element by element
    before and after the transforms; ``scale``, if given, multiplies
    every output by that scalar (the ``1/size`` of an inverse).  The
    result is a new list, bit-identical to ``vec_mul`` by ``pre``, then
    :func:`repro.ntt.radix2.ntt` on each group, then ``vec_mul`` by
    ``post`` and ``vec_scale``.  ``size`` 1 leaves only the scalings.

    On a lane backend the vector is packed once and transposed to
    size-major order, so the shared Stockham driver
    (:func:`repro.field.simd.vectorized_ntt` with ``batch`` = the group
    count) runs every group's butterflies in one pass per stage; the
    tables and the scaling are one lane op each (where the transform
    core takes an exit operand, ``post`` and ``scale`` ride its exit
    as one table instead), and the result is transposed back and
    unpacked once.  Without lane arithmetic for
    ``field``, or when the whole vector is shorter than
    :data:`~repro.field.backend.LANE_MIN_SIZE`, the groups are
    transformed one by one.
    """
    n = len(values)
    if size < 1 or size & (size - 1):
        raise NTTError(f"group size must be a power of two, got {size}")
    if n % size:
        raise NTTError(
            f"group size {size} does not divide the vector length {n}")
    for table in (pre, post):
        if table is not None and len(table) != n:
            raise NTTError(
                f"table of {len(table)} entries for a vector of {n}")
    cache = cache or default_cache
    ops = sized_lane_ops(field, n)
    if ops is None:
        out = list(values) if pre is None \
            else vec_mul(field, values, pre.values)
        if size > 1:
            for base in range(0, n, size):
                out[base:base + size] = radix2.ntt(
                    field, out[base:base + size], cache, root=root)
        if post is not None:
            out = vec_mul(field, out, post.values)
        return out if scale is None else vec_scale(field, out, scale)

    packed = ntt_lanes(ops, ops.pack(list(values)), size, root, scale,
                       cache, pre, post)
    return ops.unpack(packed) if ops.unpack is not None \
        else packed.tolist()


def ntt_lanes(ops, packed, size: int, root: int, scale: int | None = None,
              cache: TwiddleCache | None = None,
              pre: StepTable | None = None, post: StepTable | None = None):
    """The lane body of :func:`ntt_groups` on an already-packed array.

    Same arguments and result as :func:`ntt_groups`, but ``packed`` is
    a canonical ``ops`` array and so is the result; the sizes are not
    re-checked.  The input is never written; with ``size`` 1 and no
    tables or scale the result *is* the input.  Where
    :func:`~repro.field.simd.folds_exit` holds and ``size`` > 1,
    ``post`` and ``scale`` are multiplied in at the transform's exit
    (:meth:`StepTable.exit`, or the cached ``scale`` column).
    """
    from repro.field.packed import table_mul
    from repro.field.simd import folds_exit, scale_column, vectorized_ntt

    cache = cache or default_cache
    n = packed.shape[-1]
    groups = n // size
    if pre is not None:
        packed = table_mul(ops)(packed, pre.packed(ops))
    lead = packed.shape[:-1]
    if size > 1:
        exit = None
        if folds_exit(ops):  # ``post`` and ``scale`` ride the kernel exit
            if post is not None:
                exit = post.exit(ops, groups, scale)
            elif scale is not None:
                exit = scale_column(ops, scale % ops.field.modulus, cache)
            post = scale = None
        if groups > 1:  # group-major -> size-major
            packed = packed.reshape(lead + (groups, size)) \
                .swapaxes(-1, -2).reshape(lead + (n,))
        packed = vectorized_ntt(ops, packed, cache, root, batch=groups,
                                exit=exit)
        if groups > 1:  # size-major -> group-major
            packed = packed.reshape(lead + (size, groups)) \
                .swapaxes(-1, -2).reshape(lead + (n,))
    if post is not None:
        packed = table_mul(ops)(packed, post.packed(ops))
    if scale is not None:
        packed = ops.scale(packed, scale % ops.field.modulus)
    return packed


class LaneBlock:
    """Same-size lanes of one batched kernel, side by side.

    ``words`` holds the lanes' values in
    :func:`~repro.field.packed.lane_words` form, lane ``r`` at values
    ``[r*size, (r+1)*size)``; a kernel's result also keeps its unpacked
    ``values``, one list per lane.  :meth:`rows` hands each lane out as
    a mutable :class:`LaneRow` view; :meth:`dots` gives every lane's
    dot product with one :class:`~repro.field.packed.RowDotTable` from
    a single call, kept until a row is written.
    """

    __slots__ = ("field", "size", "words", "values", "_dots")

    def __init__(self, field: PrimeField, size: int, words,
                 values: list[list[int]] | None = None) -> None:
        self.field = field
        self.size = size
        self.words = words
        self.values = values
        self._dots: dict[int, tuple[object, list[int]]] = {}

    @classmethod
    def unpack(cls, ops, arr, size: int) -> LaneBlock:
        """A kernel's packed result, unpacked once into lists and words."""
        from repro.field.packed import decode_words, lane_words

        words = lane_words(ops, arr)
        values = decode_words(words)
        return cls(ops.field, size, words,
                   [values[base:base + size]
                    for base in range(0, len(values), size)])

    def __len__(self) -> int:
        return len(self.words) // self.size

    def rows(self) -> list[LaneRow]:
        return [LaneRow(self, row) for row in range(len(self))]

    def words_by_lane(self) -> list:
        """Each lane's words, as views into :attr:`words`."""
        size = self.size
        return [self.words[base:base + size]
                for base in range(0, len(self.words), size)]

    def dots(self, table) -> list[int]:
        """Every lane's dot product with a
        :class:`~repro.field.packed.RowDotTable`, mod p."""
        memo = self._dots.get(id(table))
        if memo is None or memo[0] is not table:
            memo = self._dots[id(table)] = (table, table.dots(self.words))
        return memo[1]


class LaneRow:
    """One lane of a :class:`LaneBlock` as a mutable sequence of ints.

    Reads come from the block's words.  A write (the fault injector's
    corruption) lands in the words, which the checks read, and in the
    lane's unpacked list, which is returned: one lane, checked and
    returned alike.
    """

    __slots__ = ("block", "row")

    def __init__(self, block: LaneBlock, row: int) -> None:
        self.block = block
        self.row = row

    def __len__(self) -> int:
        return self.block.size

    def _index(self, slot: int) -> int:
        if not 0 <= slot < self.block.size:
            raise IndexError(f"lane slot {slot} out of range")
        return self.row * self.block.size + slot

    def __getitem__(self, slot: int) -> int:
        from repro.field.packed import decode_words

        index = self._index(slot)
        return decode_words(self.block.words[index:index + 1])[0]

    def __setitem__(self, slot: int, value: int) -> None:
        import numpy as np

        block = self.block
        value %= block.field.modulus
        index = self._index(slot)
        word = block.words[index:index + 1]
        word[...] = np.frombuffer(value.to_bytes(8 * word.size, "little"),
                                  "<u8").reshape(word.shape)
        if block.values is not None:
            block.values[self.row][slot] = value
        block._dots.clear()

    def __iter__(self):
        from repro.field.packed import decode_words

        base = self.row * self.block.size
        return iter(decode_words(
            self.block.words[base:base + self.block.size]))

    def dot(self, table) -> int:
        """This lane's dot product with ``table`` (:meth:`LaneBlock.dots`)."""
        return self.block.dots(table)[self.row]


def batch_ntt(field: PrimeField, batch: Sequence[Sequence[int]],
              cache: TwiddleCache | None = None) -> list[list[int]]:
    """Forward NTT of every vector in ``batch`` (all the same size)."""
    return BatchTransform(field, cache).forward(batch)


def batch_intt(field: PrimeField, batch: Sequence[Sequence[int]],
               cache: TwiddleCache | None = None) -> list[list[int]]:
    """Inverse NTT of every vector in ``batch``."""
    return BatchTransform(field, cache).inverse(batch)


class BatchTransform:
    """Reusable batched transform bound to one field and twiddle cache.

    The twiddle tables are materialized once on first use per size; every
    subsequent vector in the batch reuses them, mirroring the resident
    device tables of a GPU implementation.
    """

    def __init__(self, field: PrimeField,
                 cache: TwiddleCache | None = None) -> None:
        self.field = field
        self.cache = cache or default_cache

    def _check(self, batch: Sequence[Sequence[int]]) -> int:
        if not batch:
            raise NTTError("empty batch")
        n = len(batch[0])
        for i, vec in enumerate(batch):
            if len(vec) != n:
                raise NTTError(
                    f"batch vectors must share a size: vector 0 has {n}, "
                    f"vector {i} has {len(vec)}")
        radix2.check_size(n, self.field)
        return n

    def _run(self, batch: Sequence[Sequence[int]], n: int, root: int,
             scale: int | None) -> list[list[int]]:
        flat = [v for vec in batch for v in vec]
        out = ntt_groups(self.field, flat, n, root, scale, self.cache)
        return [out[base:base + n] for base in range(0, len(out), n)]

    def forward(self, batch: Sequence[Sequence[int]]) -> list[list[int]]:
        """Transform every vector as one batched kernel."""
        n = self._check(batch)
        return self._run(batch, n, self.field.root_of_unity(n), None)

    def inverse(self, batch: Sequence[Sequence[int]]) -> list[list[int]]:
        """Inverse-transform every vector as one batched kernel."""
        n = self._check(batch)
        field = self.field
        return self._run(batch, n, field.inv_root_of_unity(n),
                         field.inv(n % field.modulus))

    def map_pointwise(self, batch_a: Sequence[Sequence[int]],
                      batch_b: Sequence[Sequence[int]],
                      op: Callable[[int, int], int]) -> list[list[int]]:
        """Pointwise combine two batches (e.g. spectral multiply)."""
        if len(batch_a) != len(batch_b):
            raise NTTError(
                f"batch sizes differ: {len(batch_a)} vs {len(batch_b)}")
        return [[op(x, y) for x, y in zip(a, b, strict=True)]
                for a, b in zip(batch_a, batch_b)]
