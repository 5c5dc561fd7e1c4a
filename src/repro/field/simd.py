"""Shared driver for data-parallel (numpy) NTTs.

The vectorized field backends (:mod:`repro.field.goldilocks`,
:mod:`repro.field.babybear`, and the generic kernels in
:mod:`repro.field.backend`) differ only in their lane arithmetic; the
transform schedule lives here and is shared.

The schedule is a Stockham autosort: each stage reads the two
*contiguous* halves of the working buffer, writes butterfly outputs
interleaved into a scratch buffer, and ping-pongs the two.  Natural
order in, natural order out, **no bit-reversal gather at all**, and
every lane operation runs on contiguous memory — the same reasons GPU
libraries favour Stockham make it the fastest numpy formulation too
(the strided-view DIF + final gather variant measures ~2x slower).
The output is bit-identical to the scalar radix-2 engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import NTTError
from repro.field.prime_field import PrimeField
from repro.ntt.twiddle import TwiddleCache, default_cache

__all__ = ["LaneOps", "vectorized_ntt", "vectorized_intt"]


@dataclass(frozen=True)
class LaneOps:
    """The lane arithmetic a vectorized backend supplies.

    The optional fields cover backends whose packed form is not a 1-D
    ``uint64`` array (the multi-limb big-field kernels): ``unpack``
    converts results back to ints when ``tolist()`` would be wrong,
    ``pack_table`` packs twiddle tables (possibly in a different
    domain, e.g. Montgomery form), ``ntt_core`` runs the whole
    transform in backend-native form instead of the generic Stockham
    loop below, ``fmt`` keys the packed-twiddle cache, and
    ``min_size`` lets a backend demand a larger minimum before the
    lane path beats scalar code.
    """

    field: PrimeField
    add: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sub: Callable[[np.ndarray, np.ndarray], np.ndarray]
    mul: Callable[[np.ndarray, np.ndarray], np.ndarray]
    scale: Callable[[np.ndarray, int], np.ndarray]
    pack: Callable[[list[int]], np.ndarray]
    unpack: Callable[[np.ndarray], list[int]] | None = None
    pack_table: Callable[[list[int]], np.ndarray] | None = None
    ntt_core: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    fmt: str = "u64"
    min_size: int = 32
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


def _check_size(n: int) -> None:
    if n == 0 or n & (n - 1):
        raise NTTError(f"NTT size must be a power of two, got {n}")


def vectorized_ntt(ops: LaneOps, values: np.ndarray,
                   cache: TwiddleCache | None = None,
                   root: int | None = None) -> np.ndarray:
    """Forward NTT with whole-stage numpy butterflies (Stockham autosort)."""
    n = values.shape[-1] if values.ndim > 1 else len(values)
    _check_size(n)
    cache = cache or default_cache
    if n == 1:
        return values.copy()
    field = ops.field
    w = field.root_of_unity(n) if root is None else root
    table = cache.packed_powers(
        field, w, n // 2, ops.pack_table or ops.pack, fmt=ops.fmt)
    if ops.ntt_core is not None:
        return ops.ntt_core(values, table)

    x = values.copy()
    y = np.empty_like(x)
    mid = n // 2
    m = n
    stride = 1
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


def vectorized_intt(ops: LaneOps, values: np.ndarray,
                    cache: TwiddleCache | None = None,
                    root: int | None = None) -> np.ndarray:
    """Inverse vectorized NTT (includes the 1/n scaling)."""
    n = values.shape[-1] if values.ndim > 1 else len(values)
    _check_size(n)
    cache = cache or default_cache
    if n == 1:
        return values.copy()
    field = ops.field
    w = field.root_of_unity(n) if root is None else root
    out = vectorized_ntt(ops, values, cache, root=field.inv(w))
    return ops.scale(out, field.inv(n))
