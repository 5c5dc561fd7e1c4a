"""Bulk operations on vectors of raw field values.

The NTT engines represent data as plain Python lists of integers in
``[0, p)`` ("raw vectors").  This module collects the vectorized helpers
shared by the transform engines, the polynomial algebra and the
simulator, so element-wise loops live in one place.

Every helper routes through the process-global *compute backend* (see
:mod:`repro.field.backend` and ``docs/BACKENDS.md``): the pure-Python
reference by default, or NumPy ``uint64`` lane arithmetic when the
``numpy`` backend is active.  The list-in/list-out contract is
identical either way; backends are bit-exact against each other.  The
two sequential table builders, :func:`vec_pow_series` and
:func:`vec_inv`, are one linear Python pass on every backend.

>>> from repro.field.presets import TEST_FIELD_97
>>> vec_add(TEST_FIELD_97, [1, 96], [2, 3])
[3, 2]
>>> vec_pow_series(TEST_FIELD_97, 2, 4)
[1, 2, 4, 8]
"""

from __future__ import annotations

import numbers
from itertools import accumulate
from typing import Sequence

from repro.errors import FieldError
from repro.field.backend import get_backend
from repro.field.prime_field import PrimeField

__all__ = [
    "vec_add", "vec_sub", "vec_mul", "vec_scale", "vec_neg",
    "vec_pow_series", "vec_inv", "vec_dot", "vec_sum", "validate_vector",
    "host_values",
]


def host_values(field: PrimeField, values) -> list[int]:
    """Normalize a staged vector to a plain list of Python ints.

    Host-side boundaries (the simulator's shard loader, checkpoint /
    restore in the resilience layer) keep values as plain ints.  A
    caller working with a vectorized backend may instead hold a
    *packed* array — 1-D ``uint64`` lanes (raw residues) or multi-limb
    planes (shape ``(L, n)``, element axis last, for the big ZKP
    fields).  This helper accepts either, plus any sequence of
    int-likes, without importing numpy: arrays are detected by duck
    type (``ndim``) and unpacked through the active backend, so the
    limb layout never has to be re-derived here.

    >>> from repro.field.presets import TEST_FIELD_97
    >>> host_values(TEST_FIELD_97, [1, True and 2, 3])
    [1, 2, 3]
    """
    ndim = getattr(values, "ndim", None)
    if ndim is None:
        return [int(v) for v in values]
    if ndim == 1:
        # 1-D lanes hold raw residues; tolist() yields plain ints.
        return values.tolist()
    try:
        return get_backend().unpack(field, values)
    except Exception as exc:
        raise FieldError(
            f"cannot unpack a {ndim}-D packed array for {field.name} "
            f"through the active backend ({get_backend().name}); pack "
            f"and unpack under the same backend") from exc


def validate_vector(field: PrimeField, values: Sequence[int]) -> None:
    """Check that every entry is a canonical field value.

    Used at simulator boundaries to catch corrupted shards early.  Any
    integral type is accepted (plain ``int``, ``numpy`` integer
    scalars, ...); callers that need plain ints normalize with
    ``int(v)`` at the boundary.

    Packed limb-plane arrays (2-D, element axis last) are unpacked
    through the active backend before validation, so big-field shards
    staged by the multi-limb backend validate like any other vector.

    >>> from repro.field.presets import TEST_FIELD_97
    >>> validate_vector(TEST_FIELD_97, [0, 42, 96])
    """
    if getattr(values, "ndim", 0) >= 2:
        values = host_values(field, values)
    p = field.modulus
    for i, v in enumerate(values):
        if (isinstance(v, bool) or not isinstance(v, numbers.Integral)
                or not 0 <= v < p):
            raise FieldError(
                f"index {i}: {v!r} is not a canonical value of {field.name}")


def vec_add(field: PrimeField, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Element-wise ``a + b`` mod p."""
    backend = get_backend()
    return backend.unpack(field, backend.add(field, a, b))


def vec_sub(field: PrimeField, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Element-wise ``a - b`` mod p."""
    backend = get_backend()
    return backend.unpack(field, backend.sub(field, a, b))


def vec_mul(field: PrimeField, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Element-wise (Hadamard) product mod p."""
    backend = get_backend()
    return backend.unpack(field, backend.mul(field, a, b))


def vec_scale(field: PrimeField, a: Sequence[int], s: int) -> list[int]:
    """Multiply every entry by the scalar ``s``."""
    backend = get_backend()
    return backend.unpack(field, backend.scale(field, a, s))


def vec_neg(field: PrimeField, a: Sequence[int]) -> list[int]:
    """Element-wise negation mod p."""
    backend = get_backend()
    return backend.unpack(field, backend.neg(field, a))


def vec_pow_series(field: PrimeField, base: int, n: int,
                   start: int = 1) -> list[int]:
    """Geometric series ``[start, start*base, ..., start*base^(n-1)]``.

    This is the twiddle-table generator: successive powers of a root,
    built as one running product.
    """
    p = field.modulus
    out = []
    acc = start % p
    for _ in range(n):
        out.append(acc)
        acc = acc * base % p
    return out


def vec_inv(field: PrimeField, a: Sequence[int]) -> list[int]:
    """Batch inversion via Montgomery's trick: one inversion for n values.

    One pass of prefix products, one field inversion of the total, and
    one backward pass that peels each inverse off it.  Raises
    :class:`FieldError` naming the first index whose entry is zero
    mod p.
    """
    p = field.modulus
    prefix = list(accumulate(a, lambda x, y: x * y % p, initial=1))
    if prefix[-1] == 0:
        index = next(i for i, v in enumerate(a) if v % p == 0)
        raise FieldError(f"batch inversion hit zero at index {index}")
    inv = field.inv(prefix[-1])
    out = [0] * len(a)
    for i in range(len(a) - 1, -1, -1):
        out[i] = prefix[i] * inv % p
        inv = inv * a[i] % p
    return out


def vec_dot(field: PrimeField, a: Sequence[int], b: Sequence[int]) -> int:
    """Inner product mod p."""
    return get_backend().dot(field, a, b)


def vec_sum(field: PrimeField, a: Sequence[int]) -> int:
    """Sum of all entries mod p."""
    return get_backend().sum(field, a)
