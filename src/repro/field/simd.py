"""Shared driver for data-parallel (numpy) NTTs.

The lane kernels of :mod:`repro.field.backend` differ only in their
lane arithmetic; the transform schedule lives here and is shared.

The schedule is a Stockham autosort: each stage reads the two
*contiguous* halves of the working buffer, writes butterfly outputs
interleaved into a scratch buffer, and ping-pongs the two.  Natural
order in, natural order out, **no bit-reversal gather at all**, and
every lane operation runs on contiguous memory — the same reasons GPU
libraries favour Stockham make it the fastest numpy formulation too
(the strided-view DIF + final gather variant measures ~2x slower).
The output is bit-identical to the scalar radix-2 engines.

The same loop runs a *batch* of transforms: with ``batch`` independent
``n``-point vectors stored size-major (element ``i`` of vector ``g`` at
lane ``i * batch + g``), starting the stride at ``batch`` instead of 1
makes every butterfly operand a contiguous row ``batch`` lanes wide, so
one stage pass transforms every vector at once.  The output comes back
in the same size-major order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import NTTError
from repro.field.prime_field import PrimeField
from repro.ntt.twiddle import TwiddleCache, default_cache

__all__ = ["LaneOps", "vectorized_ntt", "vectorized_intt", "folds_exit",
           "scale_column"]


@dataclass(frozen=True)
class LaneOps:
    """The lane arithmetic a vectorized backend supplies.

    The optional fields cover backends whose packed form is not a 1-D
    ``uint64`` array (the multi-limb big-field kernels): ``unpack``
    converts results back to ints when ``tolist()`` would be wrong,
    ``pack_table`` packs twiddle tables (possibly in a different
    domain, e.g. Montgomery form), ``ntt_core`` runs the whole
    transform in backend-native form instead of the generic Stockham
    loop below (called as ``ntt_core(values, table, batch, exit)``,
    with the size-major batch layout of :func:`vectorized_ntt` and an
    optional ``pack_table``-format exit multiplier), and ``fmt`` keys
    the packed-twiddle cache.
    """

    field: PrimeField
    add: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sub: Callable[[np.ndarray, np.ndarray], np.ndarray]
    mul: Callable[[np.ndarray, np.ndarray], np.ndarray]
    scale: Callable[[np.ndarray, int], np.ndarray]
    pack: Callable[[list[int]], np.ndarray]
    unpack: Callable[[np.ndarray], list[int]] | None = None
    pack_table: Callable[[list[int]], np.ndarray] | None = None
    ntt_core: Callable[..., np.ndarray] | None = None
    fmt: str = "u64"
    #: Pointwise multiply against a Montgomery-form (``pack_table``)
    #: array: one montmul instead of two.  ``None`` for backends whose
    #: tables are packed raw (use ``mul`` there).
    mul_mont: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    #: Fused ``(a*b - c) * s`` over packed arrays with one conditional
    #: reduction, riding the lazy-carry headroom (the QAP quotient leg).
    fused_quotient: Callable[
        [np.ndarray, np.ndarray, np.ndarray, int], np.ndarray] | None = None
    #: Lazy slot sum for :func:`repro.field.packed.gather_dot`: gathers,
    #: Montgomery-table products and additions summed un-reduced within
    #: the limb schedule's headroom (the compiled R1CS row kernel).
    gather_dot: Callable[[np.ndarray, list], np.ndarray] | None = None
    #: A canonical packed array's values as fixed-width little-endian
    #: words (:func:`repro.field.packed.lane_words`); ``None`` where
    #: each lane already is one ``uint64`` word.
    words: Callable[[np.ndarray], np.ndarray] | None = None


def _check_size(n: int) -> None:
    if n == 0 or n & (n - 1):
        raise NTTError(f"NTT size must be a power of two, got {n}")


def vectorized_ntt(ops: LaneOps, values: np.ndarray,
                   cache: TwiddleCache | None = None,
                   root: int | None = None, batch: int = 1,
                   exit: np.ndarray | None = None) -> np.ndarray:
    """Forward NTT with whole-stage numpy butterflies (Stockham autosort).

    ``batch`` > 1 transforms ``batch`` vectors of ``lanes / batch``
    points each, stored size-major (see the module docstring); ``root``
    is then the primitive root of one vector's size.  ``exit``, a
    ``pack_table``-format column or size-major table, multiplies the
    output inside ``ntt_core``'s exit (backends with an ``ntt_core``
    only; see :func:`folds_exit`).
    """
    lanes = values.shape[-1] if values.ndim > 1 else len(values)
    if batch < 1 or lanes % batch:
        raise NTTError(
            f"{lanes} lanes do not split into {batch} equal transforms")
    n = lanes // batch
    _check_size(n)
    if exit is not None and not folds_exit(ops):
        raise NTTError("this backend has no kernel exit to fold into")
    cache = cache or default_cache
    if n == 1:
        return values.copy() if exit is None else ops.mul_mont(values, exit)
    field = ops.field
    w = field.root_of_unity(n) if root is None else root
    table = cache.packed_powers(
        field, w, n // 2, ops.pack_table or ops.pack, fmt=ops.fmt)
    if ops.ntt_core is not None:
        return ops.ntt_core(values, table, batch, exit)

    x = values.copy()
    y = np.empty_like(x)
    mid = lanes // 2
    m = n
    stride = batch
    while m > 1:
        half = m // 2
        step = (n // 2) // half
        a = x[:mid]
        b = x[mid:]
        tw = table[::step][:half]
        if stride > 1:
            tw = np.repeat(tw, stride)
        out = y.reshape(half, 2, stride)
        out[:, 0, :] = ops.add(a, b).reshape(half, stride)
        out[:, 1, :] = ops.mul(ops.sub(a, b), tw).reshape(half, stride)
        x, y = y, x
        m = half
        stride *= 2
    return x


def folds_exit(ops: LaneOps) -> bool:
    """Whether ``ops``' transform core takes an exit multiplier.

    The limb kernel's ``ntt_core`` does, with ``pack_table``
    (Montgomery-form) operands; the generic u64 Stockham loop scales
    in a pass of its own.
    """
    return (ops.ntt_core is not None and ops.pack_table is not None
            and ops.mul_mont is not None)


def scale_column(ops: LaneOps, value: int, cache: TwiddleCache):
    """The cached ``pack_table`` column of one scalar (an exit operand)."""
    return cache.packed_powers(ops.field, 1, 1, ops.pack_table,
                               fmt=ops.fmt, scale=value)


def vectorized_intt(ops: LaneOps, values: np.ndarray,
                    cache: TwiddleCache | None = None,
                    root: int | None = None,
                    exit: np.ndarray | None = None) -> np.ndarray:
    """Inverse vectorized NTT (includes the 1/n scaling).

    Where the core folds an exit (:func:`folds_exit`), the ``1/n``
    rides it: by default as the cached ``1/n`` column, or as ``exit``,
    a ``pack_table``-format table that already carries the ``1/n``
    (the coset INTT's ``n^-1 g^-i``).  Elsewhere the output is scaled
    by ``1/n`` in a pass of its own, and ``exit`` must be ``None``.
    """
    n = values.shape[-1] if values.ndim > 1 else len(values)
    _check_size(n)
    cache = cache or default_cache
    if n == 1 and exit is None:
        return values.copy()
    field = ops.field
    w = field.root_of_unity(n) if root is None else root
    if folds_exit(ops) and exit is None:
        exit = scale_column(ops, field.inv(n), cache)
    out = vectorized_ntt(ops, values, cache, root=field.inv(w), exit=exit)
    return out if folds_exit(ops) else ops.scale(out, field.inv(n))
