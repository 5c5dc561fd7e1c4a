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
  property of a run (see experiment F26), not a code-reading claim.

Every helper is bit-exact against the pure-Python reference: the packed
transforms dispatch to the same vectorized cores the list wrappers use,
and the coset scaling multiplies the exact same canonical table values.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from typing import Sequence

from repro.errors import NTTError
from repro.field.backend import sized_lane_ops
from repro.field.prime_field import PrimeField
from repro.ntt.twiddle import TwiddleCache, default_cache

__all__ = [
    "PackStats", "pack_stats", "packed_ops", "packed_disabled",
    "pack_values", "unpack_values", "host_list", "packed_ntt",
    "packed_intt",
    "packed_coset_ntt", "packed_coset_intt", "packed_pad",
    "fused_mul_sub_scale", "pack_coefficients", "table_format",
    "table_mul", "gather_dot",
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

    ``None`` means the caller must take the list path: the backend has
    no lane kernels for this field, the problem size ``n`` is below the
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


def packed_ntt(ops, arr, cache: TwiddleCache | None = None,
               root: int | None = None):
    """Forward NTT on an already-packed array (stays packed)."""
    from repro.field.simd import vectorized_ntt

    return vectorized_ntt(ops, arr, cache or default_cache, root)


def packed_intt(ops, arr, cache: TwiddleCache | None = None,
                root: int | None = None):
    """Inverse NTT on an already-packed array (stays packed)."""
    from repro.field.simd import vectorized_intt

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
    runs the packed forward transform.  Bit-exact against the list
    reference.
    """
    field = ops.field
    if shift % field.modulus == 0:
        raise NTTError("coset shift must be non-zero")
    cache = cache or default_cache
    return packed_ntt(ops, _scale_by_powers(ops, arr, shift, cache), cache)


def packed_coset_intt(ops, arr, shift: int,
                      cache: TwiddleCache | None = None):
    """:func:`repro.ntt.coset.coset_intt` on a packed array, resident."""
    field = ops.field
    if shift % field.modulus == 0:
        raise NTTError("coset shift must be non-zero")
    cache = cache or default_cache
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
