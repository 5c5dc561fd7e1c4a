"""Packed vector format for whole prover pipelines.

PR 6 made single transforms fast on big fields: ``radix2.ntt`` packs a
``list[int]`` into limb planes, runs the resident Stockham core, and
unpacks — *per call*.  A Groth16 QAP pipeline chains seven transforms
with pointwise legs between them, so the list round-trip is paid seven
times even though every intermediate only feeds the next packed stage.

This module makes the packed array itself the unit of currency between
pipeline stages.  It is deliberately thin — the arithmetic lives in the
lane kernels (:mod:`repro.field.simd`, :mod:`repro.field.multilimb`);
what lives here is:

* :func:`packed_ops` — the single gate deciding whether a pipeline may
  run packed (backend offers lane ops, size clears
  :data:`~repro.field.backend.LANE_MIN_SIZE`, the packed path has not
  been disabled);
* coset-aware transforms (:func:`packed_coset_ntt` /
  :func:`packed_coset_intt`) whose scale tables are cached in
  Montgomery form so the pointwise pre/post-scaling is one montmul via
  ``LaneOps.mul_mont``;
* :class:`PackStats` — process-wide pack/unpack counters with a "hot
  section" marker.  A pipeline wraps its resident legs in
  ``with pack_stats.hot():``; any unpack inside bumps
  ``hot_unpacks``, so "zero intermediate unpacks" is an *asserted*
  property of a run (see experiment F26), not a code-reading claim;
* the fixed-width word form of packed values (:func:`lane_words`,
  :func:`decode_words`) and :class:`RowDotTable`, exact dot products of
  many same-size rows with one constant table (the serve's batched
  Freivalds check).

Every helper is bit-exact against the pure-Python reference: the packed
transforms dispatch to the same vectorized cores the list wrappers use,
and the coset scaling multiplies the exact same canonical table values.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Sequence

from repro.errors import NTTError
from repro.field.backend import sized_lane_ops
from repro.field.prime_field import PrimeField
from repro.ntt.twiddle import TwiddleCache, default_cache

__all__ = [
    "PackStats", "pack_stats", "packed_ops", "packed_disabled",
    "PendingExit",
    "pack_values", "unpack_values", "host_list", "packed_ntt",
    "packed_intt",
    "packed_coset_ntt", "packed_coset_intt", "packed_pad",
    "fused_mul_sub_scale", "pack_coefficients", "table_format",
    "table_mul", "gather_dot", "RowDotTable", "value_words", "lane_words",
    "decode_words",
]

_ENABLED = True


class PackStats:
    """Pack/unpack boundary counters for packed pipeline runs.

    ``packs``/``unpacks`` count every format conversion routed through
    this module.  ``hot_unpacks`` counts only unpacks that happen
    inside a ``with pack_stats.hot():`` region — the resident legs of
    a pipeline — and is the number experiment F26 asserts to be zero.
    ``fused`` counts pointwise legs that ran on the fused lazy-carry
    kernel rather than as separate mul/sub/scale passes.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.packs = 0
        self.unpacks = 0
        self.hot_unpacks = 0
        self.fused = 0
        self._hot_depth = 0

    @contextmanager
    def hot(self):
        """Mark a resident region: unpacks inside count as hot."""
        self._hot_depth += 1
        try:
            yield self
        finally:
            self._hot_depth -= 1

    def snapshot(self) -> dict[str, int]:
        """Counter values as a plain dict (sorted keys)."""
        return {"fused": self.fused, "hot_unpacks": self.hot_unpacks,
                "packs": self.packs, "unpacks": self.unpacks}


#: Process-wide counters; pipelines and experiments share this instance.
pack_stats = PackStats()


@contextmanager
def packed_disabled():
    """Force every pipeline onto the list path (A/B runs, experiments)."""
    global _ENABLED
    prior = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = prior


def packed_ops(field: PrimeField, n: int):
    """The active backend's :class:`LaneOps` for ``field``, or ``None``.

    ``None`` means the caller must take the list path: the active
    backend is the Python one, the problem size ``n`` is below the
    shared lane crossover or not a power of two, or packed execution is
    disabled via :func:`packed_disabled`.
    """
    if not _ENABLED or n & (n - 1):
        return None
    return sized_lane_ops(field, n)


def pack_values(ops, values: Sequence[int]):
    """Pack a list into the backend's native array (counted)."""
    pack_stats.packs += 1
    return ops.pack(list(values))


def unpack_values(ops, arr) -> list[int]:
    """Unpack a native array back to ints (counted; hot if marked)."""
    pack_stats.unpacks += 1
    if pack_stats._hot_depth > 0:
        pack_stats.hot_unpacks += 1
    if ops.unpack is not None:
        return ops.unpack(arr)
    return arr.tolist()


def host_list(field: PrimeField, arr) -> list[int]:
    """Unpack *any* packed array to plain ints (counted; hot if marked).

    Works without :class:`LaneOps` — the staging/durability boundaries
    (checkpoint, restore, shard materialization) must unpack even when
    the backend that packed the array is no longer active, so this
    routes through :func:`repro.field.vector.host_values`, which
    resolves the layout via the process backend.
    """
    from repro.field.vector import host_values

    pack_stats.unpacks += 1
    if pack_stats._hot_depth > 0:
        pack_stats.hot_unpacks += 1
    return host_values(field, arr)


@dataclass(frozen=True, eq=False)
class PendingExit:
    """An inverse transform's result, short of its exit montmul.

    ``lazy`` holds the transform's last-stage values (below R,
    canonical limbs: :func:`repro.field.simd.lazy_intt`) and owes one
    multiplication by ``scale * base^i`` at lane ``i``: ``1/n`` for an
    INTT, ``n^-1 g^-i`` for an INTT from the coset ``g``.  The exit is
    the one montmul :func:`~repro.field.simd.vectorized_intt` would
    have run, so :meth:`resolve` is bit-identical to it; a following
    coset NTT folds its ``shift^i`` pre-scale into the same montmul
    (:meth:`resolve` with ``shift``) instead of paying a pass of its
    own.  Read-only: the lazy array is never written.
    """

    ops: object
    lazy: object
    scale: int
    base: int = 1

    def resolve(self, cache: TwiddleCache | None = None, shift: int = 1):
        """The canonical values times ``shift^i``: one exit montmul.

        The operand is the cached ``pack_table`` column of ``scale``
        where the exit has no per-lane factor, else the cached
        ``scale * (base * shift)^i`` table.
        """
        from repro.field.simd import scale_column

        ops, cache = self.ops, cache or default_cache
        field = ops.field
        base = self.base * shift % field.modulus
        if base == 1:
            operand = scale_column(ops, self.scale, cache)
        else:
            operand = cache.packed_powers(
                field, base, self.lazy.shape[-1], ops.pack_table,
                fmt=ops.fmt, scale=self.scale)
        return ops.mul_mont(self.lazy, operand)


def packed_ntt(ops, arr, cache: TwiddleCache | None = None,
               root: int | None = None):
    """Forward NTT on an already-packed array (stays packed)."""
    from repro.field.simd import vectorized_ntt

    return vectorized_ntt(ops, arr, cache or default_cache, root)


def packed_intt(ops, arr, cache: TwiddleCache | None = None,
                root: int | None = None, *, defer: bool = False):
    """Inverse NTT on an already-packed array (stays packed).

    With ``defer``, where the transform core folds its exit
    (:func:`~repro.field.simd.folds_exit`), the result is a
    :class:`PendingExit` that still owes the ``1/n``.
    """
    from repro.field.simd import folds_exit, lazy_intt, vectorized_intt

    field = ops.field
    if defer and root is None and folds_exit(ops):
        n = arr.shape[-1]
        return PendingExit(ops, lazy_intt(ops, arr, cache),
                           field.inv(n % field.modulus))
    return vectorized_intt(ops, arr, cache or default_cache, root)


def _mont_tables(ops) -> bool:
    """Whether ``ops`` multiplies by Montgomery-form tables (``mul_mont``)."""
    return ops.mul_mont is not None and ops.pack_table is not None


def _scale_by_powers(ops, arr, base: int, cache: TwiddleCache):
    """Pointwise-multiply ``arr`` by ``[base^0 .. base^(n-1)]``, packed.

    Backends with Montgomery table packing get the table cached in
    Montgomery form and pay one montmul per element (``mul_mont``);
    raw-table backends reuse the ordinary packed mirror and ``mul``.
    The table cache key carries the packing format so the two mirrors
    of one power table never collide.
    """
    field = ops.field
    table = cache.packed_powers(field, base % field.modulus, arr.shape[-1],
                                partial(pack_coefficients, ops),
                                fmt=table_format(ops))
    return table_mul(ops)(arr, table)


def packed_coset_ntt(ops, arr, shift: int,
                     cache: TwiddleCache | None = None):
    """:func:`repro.ntt.coset.coset_ntt` on a packed array, resident.

    Pre-scales by powers of ``shift`` (one fused pointwise pass), then
    runs the packed forward transform.  A :class:`PendingExit` input
    takes the pre-scale into its exit montmul instead (one cached
    ``scale * (base * shift)^i`` table).  Bit-exact against the list
    reference.
    """
    field = ops.field
    if shift % field.modulus == 0:
        raise NTTError("coset shift must be non-zero")
    cache = cache or default_cache
    if isinstance(arr, PendingExit):
        scaled = arr.resolve(cache, shift % field.modulus)
    else:
        scaled = _scale_by_powers(ops, arr, shift, cache)
    return packed_ntt(ops, scaled, cache)


def packed_coset_intt(ops, arr, shift: int,
                      cache: TwiddleCache | None = None, *,
                      defer: bool = False):
    """:func:`repro.ntt.coset.coset_intt` on a packed array, resident.

    Where the transform core folds an exit (the limb kernel), one
    cached ``n^-1 g^-i`` table rides it, so the ``1/n`` and the coset
    unscaling cost no pass of their own; elsewhere the packed INTT is
    followed by one table pass.  With ``defer`` (folding cores only)
    the result is a :class:`PendingExit` that still owes that table.
    """
    from repro.field.simd import folds_exit, lazy_intt, vectorized_intt

    field = ops.field
    if shift % field.modulus == 0:
        raise NTTError("coset shift must be non-zero")
    cache = cache or default_cache
    if folds_exit(ops):
        n = arr.shape[-1]
        scale, base = field.inv(n % field.modulus), field.inv(shift)
        if defer:
            return PendingExit(ops, lazy_intt(ops, arr, cache), scale, base)
        table = cache.packed_powers(field, base, n, ops.pack_table,
                                    fmt=ops.fmt, scale=scale)
        return vectorized_intt(ops, arr, cache, exit=table)
    coeffs = packed_intt(ops, arr, cache)
    return _scale_by_powers(ops, coeffs, field.inv(shift), cache)


def packed_pad(ops, arr, n: int):
    """Zero-extend a packed array to ``n`` elements along the lane axis.

    The packed analogue of ``coeffs + [0] * (n - len(coeffs))`` (the
    low-degree-extension blowup); zero is all-zero limbs in every
    packed format, so this is a plain array widening.
    """
    import numpy as np

    have = arr.shape[-1]
    if n < have:
        raise NTTError(f"cannot pad {have} lanes down to {n}")
    if n == have:
        return arr
    out = np.zeros(arr.shape[:-1] + (n,), dtype=arr.dtype)
    out[..., :have] = arr
    return out


def fused_mul_sub_scale(ops, a, b, c, s: int):
    """``(a*b - c) * s`` pointwise over packed arrays.

    Dispatches to the backend's lazy-carry fused kernel when it has
    one (a single conditional reduction for the whole expression);
    otherwise composes the three canonical lane ops.  Either way the
    result is bit-exact against ``[(x*y - z) * s % p ...]``.
    """
    if ops.fused_quotient is not None:
        pack_stats.fused += 1
        return ops.fused_quotient(a, b, c, s)
    return ops.scale(ops.sub(ops.mul(a, b), c), s % ops.field.modulus)


def pack_coefficients(ops, values: Sequence[int]):
    """Pack a constant coefficient table for :func:`gather_dot`.

    Montgomery form (``pack_table``) where the backend multiplies
    tables with ``mul_mont``, the ordinary packed format otherwise.
    Values must already be reduced mod p.
    """
    return (ops.pack_table if _mont_tables(ops) else ops.pack)(list(values))


def table_format(ops) -> str:
    """The cache key of a :func:`pack_coefficients` table under ``ops``.

    The lane format, prefixed ``raw:`` where tables are packed in the
    ordinary form, so the Montgomery and raw mirrors of one table never
    collide.
    """
    return ops.fmt if _mont_tables(ops) else "raw:" + ops.fmt


def table_mul(ops):
    """The lane multiply for :func:`pack_coefficients` tables.

    ``mul_mont`` (one montmul) where tables are packed in Montgomery
    form, ``mul`` where they are packed in the ordinary format.
    """
    return ops.mul_mont if _mont_tables(ops) else ops.mul


def gather_dot(ops, x, slots):
    """``sum_j x[..., idx_j] * t_j`` over slot-major sparse terms, packed.

    Each slot is ``(idx, table)``: ``idx`` is an int array with one
    entry per output lane, indexing the element axis of ``x``, and
    ``table`` a :func:`pack_coefficients` array of the same lane count,
    or ``None`` for a slot whose coefficients are all 1 (a gather
    only).  ``slots`` must not be empty.  Dispatches to the backend's
    lazy slot sum when it has one (one reduction per run of
    ``LimbSchedule.lazy_sum_terms`` products); otherwise multiplies
    and adds with the canonical lane ops.  Either way the result is
    canonical and bit-exact against the per-lane integer sum mod p.
    """
    if ops.gather_dot is not None:
        return ops.gather_dot(x, slots)
    mul = table_mul(ops)
    acc = None
    for idx, table in slots:
        term = x[..., idx]
        if table is not None:
            term = mul(term, table)
        acc = term if acc is None else ops.add(acc, term)
    return acc


#: Lanes :class:`RowDotTable` widens and sums per step (at most
#: ``2^13``, which keeps every sum exact; smaller keeps each step's
#: ``float64`` copies small).
ROW_DOT_BLOCK = 1 << 11


class RowDotTable:
    """A constant table of field values, kept for exact row dot products.

    The values are held as their fixed-width little-endian words
    (:func:`value_words` 64-bit words per value, as ``bytes``: about
    half the memory of a tuple of wide ints), and decoded to
    :attr:`values` only when a list path asks.  :meth:`dots` reads the
    table and the rows as 32-bit limbs; per step of at most
    :data:`ROW_DOT_BLOCK` lanes it cuts the table's limbs into four
    8-bit chunks and widens them and the rows' limbs to ``float64``;
    one matrix product per chunk sums every row's limb-by-chunk
    products, ``int64`` adds group them by weight, and each row's
    groups fold into an int in Python.  Exact: a product is below
    ``2^40`` and a step sums at most ``2^13`` of them per row, so every
    matrix-product sum is an integer below ``2^53``, which ``float64``
    holds in any summation order; a weight groups at most
    ``ceil(bits(p)/32)`` such sums, far inside ``int64``.
    """

    __slots__ = ("field", "lanes", "_words", "_values")

    def __init__(self, field: PrimeField, values: Sequence[int]) -> None:
        width = 8 * value_words(field)
        self.field = field
        self.lanes = len(values)
        self._words = b"".join(v.to_bytes(width, "little") for v in values)
        self._values: tuple[int, ...] | None = None

    @property
    def values(self) -> tuple[int, ...]:
        """The table's canonical ints (decoded once, on first use)."""
        if self._values is None:
            width = 8 * value_words(self.field)
            data = self._words
            self._values = tuple(
                int.from_bytes(data[i:i + width], "little")
                for i in range(0, len(data), width))
        return self._values

    def dots(self, words) -> list[int]:
        """``sum_j row[j] * table[j] mod p`` for every ``n``-value row
        of ``words`` (:func:`lane_words` form)."""
        import numpy as np

        n = self.lanes
        rows, rest = divmod(len(words), n)
        if rest:
            raise NTTError(f"{len(words)} lanes are not whole {n}-lane rows")
        table = _word_limbs(self.field, np.frombuffer(self._words, "<u8")
                            .reshape(n, -1))
        x = _word_limbs(self.field, words)
        d = len(x)
        x = x.reshape(d, rows, n)
        width = min(n, ROW_DOT_BLOCK)
        span = ROW_DOT_BLOCK // width  # rows per step
        mask = np.uint32(0xFF)
        shifts = [32 * i + 8 * j for i in range(2 * d - 1) for j in range(4)]
        dots = [0] * rows
        for lo in range(0, n, width):
            limbs = table[:, lo:lo + width]
            for first in range(0, rows, span):
                part = x[:, first:first + span, lo:lo + width]
                count = part.shape[1]
                part = part.astype(np.float64).reshape(d * count, width)
                sums = np.stack([
                    part @ ((limbs >> np.uint32(8 * j)) & mask)
                    .astype(np.float64).T for j in range(4)], axis=-1) \
                    .astype(np.int64).reshape(d, count, d, 4)
                grouped = np.zeros((count, 2 * d - 1, 4), dtype=np.int64)
                for i in range(d):  # limb i times limb j weighs 2^(32(i+j))
                    grouped[:, i:i + d] += sums[i]
                for r, row in enumerate(grouped.reshape(count, -1).tolist(),
                                        first):
                    dots[r] += sum(v << s for v, s in zip(row, shifts))
        p = self.field.modulus
        return [v % p for v in dots]


def _word_limbs(field: PrimeField, words):
    """:func:`lane_words` ``words`` as ``uint32`` limb planes ``(d, n)``,
    ``d = ceil(bits(p) / 32)`` (a strided view, no copy)."""
    d = -(-field.modulus.bit_length() // 32)
    return words.view("<u4").reshape(len(words), -1)[:, :d].T


def value_words(field: PrimeField) -> int:
    """64-bit words per value in :func:`lane_words` form.

    ``ceil(bits(p) / 64)``: a property of the field alone, so every
    backend lays a value out alike.
    """
    return (field.modulus.bit_length() + 63) // 64


def lane_words(ops, arr):
    """A canonical packed array's values as fixed-width words.

    A ``<u8`` array of :func:`value_words` little-endian 64-bit words
    per value, shape ``(n, V)`` (``(n,)`` for one word), whose buffer is
    the values' fixed-width bytes.  Limb planes build it on the way to
    ints; a ``uint64`` lane array already is it.
    """
    if ops.words is not None:
        return ops.words(arr)
    return arr.astype("<u8", copy=False)


def decode_words(words) -> list[int]:
    """A :func:`lane_words` array back to ints."""
    import struct

    if words.ndim == 1:
        return words.tolist()
    from_bytes = int.from_bytes
    return [from_bytes(chunk, "little") for (chunk,) in
            struct.iter_unpack(f"{words.itemsize * words.shape[1]}s",
                               words)]
