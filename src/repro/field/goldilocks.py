"""Vectorized Goldilocks arithmetic (numpy uint64 kernels).

The Goldilocks prime ``p = 2^64 - 2^32 + 1`` is loved by ZKP systems
precisely because its reduction is branch-light 64-bit arithmetic:
``2^64 = 2^32 - 1 (mod p)`` and ``2^96 = -1 (mod p)``, so a 128-bit
product ``lo + hi * 2^64`` (with ``hi = hi_hi * 2^32 + hi_lo``) reduces
as ``lo + hi_lo * (2^32 - 1) - hi_hi``.  This module implements exactly
that kernel on numpy ``uint64`` lanes — the same instruction mix a GPU
thread executes.  :class:`repro.field.NumPyBackend` runs Goldilocks on
it, so every Goldilocks lane op and transform goes through this kernel.

All functions take/return canonical values (``< p``) as ``uint64``
arrays; the 128-bit product is assembled from four 32x32 partial
products with explicit carry tracking (numpy integer ops wrap mod 2^64,
which is what the carry recovery relies on).
"""

from __future__ import annotations

import numpy as np

from repro.field.presets import GOLDILOCKS

__all__ = ["GOLDILOCKS_P", "gl_add", "gl_sub", "gl_mul", "gl_neg"]

#: The Goldilocks modulus as a plain int (fits in uint64).
GOLDILOCKS_P = GOLDILOCKS.modulus

_P = np.uint64(GOLDILOCKS_P)
_MASK32 = np.uint64(0xFFFFFFFF)
_EPS = np.uint64((1 << 32) - 1)  # 2^64 mod p
_SHIFT32 = np.uint64(32)
_C32 = np.uint64(1 << 32)


def _canonical(x: np.ndarray) -> np.ndarray:
    """One conditional subtraction into [0, p)."""
    return np.where(x >= _P, x - _P, x)


def gl_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise addition mod p (inputs canonical)."""
    s = a + b  # wraps mod 2^64
    s += (s < a) * _EPS  # recover the lost 2^64 = eps mod p
    return _canonical(s)


def gl_sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise subtraction mod p (inputs canonical)."""
    d = a - b  # wraps
    return np.where(a < b, d - _EPS, d)


def gl_neg(a: np.ndarray) -> np.ndarray:
    """Element-wise negation mod p."""
    return np.where(a == 0, a, _P - a)


def gl_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise multiplication mod p — the Goldilocks kernel.

    Four 32x32->64 partial products, carry assembly of the 128-bit
    result, then the ``2^64 = 2^32 - 1`` reduction.  ``b`` may be a
    ``uint64`` scalar.  After the partial products every intermediate
    lands in the two limb buffers of ``a`` and one carry mask (this
    kernel dominates transform time, and the temporaries are the
    measured cost).
    """
    a0 = a & _MASK32
    a1 = a >> _SHIFT32
    b0 = b & _MASK32
    b1 = b >> _SHIFT32

    lo = a0 * b0
    hi = a1 * b1
    a0 *= b1          # lh: low*high partial (a0 buffer reused)
    a1 *= b0          # hl: high*low partial
    a0 += a1          # mid = lh + hl, wraps mod 2^64
    carry = a0 < a1
    np.multiply(carry, _C32, out=a1)
    hi += a1
    np.left_shift(a0, _SHIFT32, out=a1)     # mid << 32
    lo += a1
    np.less(lo, a1, out=carry)
    hi += carry
    a0 >>= _SHIFT32
    hi += a0

    # Reduce lo + hi*2^64 with 2^64 = 2^32 - 1, 2^96 = -1.
    np.bitwise_and(hi, _MASK32, out=a1)     # hi_lo
    hi >>= _SHIFT32                         # hi is now hi_hi
    np.less(lo, hi, out=carry)
    lo -= hi
    np.multiply(carry, _EPS, out=a0)
    lo -= a0                                # borrow: -2^64 = -eps mod p
    np.left_shift(a1, _SHIFT32, out=a0)
    a0 -= a1                                # hi_lo * (2^32 - 1) < 2^64
    lo += a0
    np.less(lo, a0, out=carry)
    np.multiply(carry, _EPS, out=a0)
    lo += a0
    np.subtract(lo, _P, out=lo, where=lo >= _P)
    np.subtract(lo, _P, out=lo, where=lo >= _P)
    return lo
