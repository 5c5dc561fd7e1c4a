"""Iterative radix-2 NTT kernels.

Two classic schedules are provided:

* **DIT** (decimation in time, Cooley-Tukey): consumes *bit-reversed*
  input and produces natural-order output; butterflies run from stride 1
  upward.
* **DIF** (decimation in frequency, Gentleman-Sande): consumes natural
  input and produces *bit-reversed* output; butterflies run from stride
  n/2 downward.

A DIF forward followed by a DIT inverse therefore needs **no bit-reversal
pass at all** — the permuted intermediate order cancels.  This is the
single-level instance of the paper's "overhead-free" theme and is how
the ZKP pipeline chains NTT -> pointwise -> INTT.

The user-facing :func:`ntt` / :func:`intt` wrappers return natural order.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import NTTError
from repro.field.backend import sized_lane_ops
from repro.field.prime_field import PrimeField
from repro.ntt.twiddle import TwiddleCache, default_cache

__all__ = [
    "ntt", "intt", "ntt_dit_inplace", "ntt_dif_inplace",
    "apply_bit_reversal", "radix2_butterfly_count",
]

def check_size(n: int, field: PrimeField) -> None:
    """Raise :class:`NTTError` unless ``field`` has an n-point NTT."""
    if n == 0 or n & (n - 1):
        raise NTTError(f"NTT size must be a power of two, got {n}")
    log_n = n.bit_length() - 1
    if log_n > field.two_adicity:
        raise NTTError(
            f"size 2^{log_n} exceeds {field.name} two-adicity "
            f"{field.two_adicity}")


def apply_bit_reversal(values: list[int], cache: TwiddleCache | None = None) -> None:
    """In-place bit-reversal permutation of a power-of-two-length list."""
    cache = cache or default_cache
    perm = cache.bitrev(len(values))
    for i, j in enumerate(perm):
        if i < j:
            values[i], values[j] = values[j], values[i]


def ntt_dit_inplace(field: PrimeField, values: list[int],
                    twiddles: Sequence[int]) -> None:
    """Radix-2 DIT butterflies: bit-reversed input -> natural output.

    ``twiddles`` is the half-table ``[w^0 .. w^(n/2 - 1)]`` for the
    primitive n-th root ``w`` (forward or inverse, caller's choice).
    """
    n = len(values)
    p = field.modulus
    half = 1
    while half < n:
        step = (n // 2) // half  # stride into the n/2-entry twiddle table
        for start in range(0, n, half * 2):
            t_index = 0
            for j in range(start, start + half):
                w = twiddles[t_index]
                t_index += step
                u = values[j]
                v = values[j + half] * w % p
                s = u + v
                values[j] = s - p if s >= p else s
                d = u - v
                values[j + half] = d + p if d < 0 else d
        half *= 2


def ntt_dif_inplace(field: PrimeField, values: list[int],
                    twiddles: Sequence[int]) -> None:
    """Radix-2 DIF butterflies: natural input -> bit-reversed output."""
    n = len(values)
    p = field.modulus
    half = n // 2
    while half >= 1:
        step = (n // 2) // half
        for start in range(0, n, half * 2):
            t_index = 0
            for j in range(start, start + half):
                w = twiddles[t_index]
                t_index += step
                u = values[j]
                v = values[j + half]
                s = u + v
                values[j] = s - p if s >= p else s
                values[j + half] = (u - v) * w % p
        half //= 2


def ntt(field: PrimeField, values: Sequence[int],
        cache: TwiddleCache | None = None,
        root: int | None = None) -> list[int]:
    """Forward NTT, natural order in and out.

    ``root`` overrides the primitive n-th root (used by decomposition
    plans, which transform sub-problems with powers of the global root).
    """
    n = len(values)
    if root is None:
        check_size(n, field)
    elif n == 0 or n & (n - 1):
        raise NTTError(f"NTT size must be a power of two, got {n}")
    cache = cache or default_cache
    ops = sized_lane_ops(field, n)
    if ops is not None:
        from repro.field.simd import vectorized_ntt

        res = vectorized_ntt(ops, ops.pack(list(values)), cache, root)
        return ops.unpack(res) if ops.unpack is not None else res.tolist()
    out = list(values)
    if n == 1:
        return out
    if root is None:
        table = cache.forward(field, n)
    else:
        table = cache.powers(field, root, n // 2)
    ntt_dif_inplace(field, out, table)
    apply_bit_reversal(out, cache)
    return out


def intt(field: PrimeField, values: Sequence[int],
         cache: TwiddleCache | None = None,
         root: int | None = None) -> list[int]:
    """Inverse NTT, natural order in and out (includes the 1/n scaling).

    ``root``, if given, is the *forward* primitive n-th root; its inverse
    is used internally.
    """
    n = len(values)
    if root is None:
        check_size(n, field)
    elif n == 0 or n & (n - 1):
        raise NTTError(f"NTT size must be a power of two, got {n}")
    cache = cache or default_cache
    ops = sized_lane_ops(field, n)
    if ops is not None:
        from repro.field.simd import vectorized_intt

        res = vectorized_intt(ops, ops.pack(list(values)), cache, root)
        return ops.unpack(res) if ops.unpack is not None else res.tolist()
    out = list(values)
    if n == 1:
        return out
    if root is None:
        table = cache.inverse(field, n)
    else:
        table = cache.powers(field, field.inv(root), n // 2)
    ntt_dif_inplace(field, out, table)
    apply_bit_reversal(out, cache)
    p = field.modulus
    n_inv = field.inv(n % p)
    for i, v in enumerate(out):
        out[i] = v * n_inv % p
    return out


def radix2_butterfly_count(n: int) -> int:
    """Number of butterflies a radix-2 transform of size n performs.

    Used by the analytic cost model: ``(n/2) * log2(n)``.
    """
    if n <= 1:
        return 0
    return (n // 2) * (n.bit_length() - 1)
