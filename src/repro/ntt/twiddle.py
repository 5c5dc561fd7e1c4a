"""Twiddle-factor tables.

Every NTT engine needs powers of a primitive root.  Real GPU kernels
precompute these tables once per (field, size) and keep them resident in
device memory; we mirror that with a process-wide cache so repeated
transforms (the common ZKP case: thousands of same-size NTTs) do not
regenerate tables.

The cache keeps hit/miss/eviction counters so higher layers — the
proof-serving scheduler in :mod:`repro.serve` above all — can *price*
table generation honestly: a miss costs one modular multiplication per
generated entry, a hit costs zero recompute.  An optional
``max_tables`` bound turns the cache into an LRU (least recently used
table evicted first), which models finite device memory for resident
twiddles.

The table *values* are memoized once per process (:func:`_memo_powers`,
:func:`_memo_bitrev`) as tuples: a fresh cache that misses shares the
memoized tuple instead of regenerating it, but still counts and prices
the miss as its own.  Counts are per cache; values are per process, and
being immutable, no caller's write can reach another caller's
transform.
"""

from __future__ import annotations

import functools
from collections import OrderedDict

from repro.errors import NTTError
from repro.field.prime_field import PrimeField
from repro.field.vector import vec_pow_series

__all__ = ["TwiddleCache", "default_cache", "bit_reverse", "bit_reverse_permutation"]


def bit_reverse(value: int, bits: int) -> int:
    """Reverse the low ``bits`` bits of ``value``."""
    result = 0
    for _ in range(bits):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


def bit_reverse_permutation(n: int) -> list[int]:
    """The permutation ``i -> bit_reverse(i)`` for a power-of-two n.

    Built by doubling: reversing one more bit sends the permutation of
    size m to its doubles (top bit 0) followed by its doubles plus one.
    """
    if n & (n - 1):
        raise NTTError(f"bit-reversal needs a power-of-two size, got {n}")
    perm = [0] if n else []
    while len(perm) < n:
        doubled = [2 * x for x in perm]
        perm = doubled + [x + 1 for x in doubled]
    return perm


@functools.lru_cache(maxsize=64)
def _memo_powers(field: PrimeField, root: int,
                 count: int) -> tuple[int, ...]:
    # Fields compare by modulus, so the key is (modulus, root, count).
    return tuple(vec_pow_series(field, root, count))


@functools.lru_cache(maxsize=32)
def _memo_bitrev(n: int) -> tuple[int, ...]:
    return tuple(bit_reverse_permutation(n))


class TwiddleCache:
    """Cache of root-power tables keyed by (field modulus, root, length).

    ``max_tables`` (optional) bounds the number of resident power
    tables; inserting past the bound evicts the least recently used
    table (and its packed mirror) and bumps ``evictions``.
    """

    def __init__(self, max_tables: int | None = None) -> None:
        if max_tables is not None and max_tables < 1:
            raise NTTError(
                f"max_tables must be >= 1 when set, got {max_tables}")
        self.max_tables = max_tables
        self._tables: OrderedDict[tuple[int, int, int],
                                  tuple[int, ...]] = OrderedDict()
        self._bitrev: dict[int, tuple[int, ...]] = {}
        self._packed: dict[tuple[int, int, int, str, int], object] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.generated_entries = 0

    def powers(self, field: PrimeField, root: int,
               count: int) -> tuple[int, ...]:
        """Return ``(1, root, root^2, ..., root^(count-1))`` mod p.

        The table is the process-wide memoized tuple: read-only, shared
        by every cache that holds it.
        """
        key = (field.modulus, root, count)
        table = self._tables.get(key)
        if table is None:
            self.misses += 1
            table = _memo_powers(field, root, count)
            self.generated_entries += count
            self._tables[key] = table
            self._evict_over_bound()
        else:
            self.hits += 1
            self._tables.move_to_end(key)
        return table

    def _evict_over_bound(self) -> None:
        if self.max_tables is None:
            return
        while len(self._tables) > self.max_tables:
            key, _ = self._tables.popitem(last=False)
            for packed_key in [k for k in self._packed if k[:3] == key]:
                del self._packed[packed_key]
            self.evictions += 1

    def packed_powers(self, field: PrimeField, root: int, count: int, pack,
                      fmt: str = "u64", scale: int = 1):
        """:meth:`powers`, packed by ``pack`` into a lane-backend array.

        Real kernels keep twiddles resident in device memory in device
        format; the vectorized backends mirror that by caching the
        packed form alongside the int table, so repeated transforms
        skip the list-to-array conversion.  ``fmt`` names the lane
        format (``u64`` lanes by default; the multi-limb backend passes
        its schedule tag, e.g. ``limb29x9``, and packs tables in
        Montgomery form) so differently-packed mirrors of one table
        coexist.  ``scale`` multiplies every entry (``scale * root^i``:
        an inverse transform's folded ``n^-1 g^-i`` exit table) and is
        part of the key, so a scaled mirror never stands in for the
        plain one.  The array handed out is read-only: every caller
        shares it.
        """
        p = field.modulus
        key = (p, root, count, fmt, scale % p)
        packed = self._packed.get(key)
        if packed is None:
            table = self.powers(field, root, count)
            if scale % p != 1:
                table = [v * scale % p for v in table]
            packed = pack(table)
            packed.flags.writeable = False
            self._packed[key] = packed
        return packed

    def contains(self, field: PrimeField, root: int, count: int) -> bool:
        """Whether a power table is resident (no counter side effects)."""
        return (field.modulus, root, count) in self._tables

    def forward(self, field: PrimeField, n: int) -> tuple[int, ...]:
        """Powers of the primitive n-th root (half-table, n/2 entries)."""
        return self.powers(field, field.root_of_unity(n), max(n // 2, 1))

    def inverse(self, field: PrimeField, n: int) -> tuple[int, ...]:
        """Powers of the inverse n-th root (half-table)."""
        return self.powers(field, field.inv_root_of_unity(n), max(n // 2, 1))

    def bitrev(self, n: int) -> tuple[int, ...]:
        """Cached bit-reversal permutation for size n (a shared tuple)."""
        perm = self._bitrev.get(n)
        if perm is None:
            perm = self._bitrev[n] = _memo_bitrev(n)
        return perm

    def clear(self) -> None:
        """Drop all cached tables (used by memory-pressure tests).

        Counters survive a clear: they describe the cache's lifetime
        service history, not its current occupancy.
        """
        self._tables.clear()
        self._bitrev.clear()
        self._packed.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters (tables stay resident)."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.generated_entries = 0

    def stats(self) -> dict[str, int]:
        """Cache occupancy and service counters (sorted keys)."""
        return {
            "bitrev_tables": len(self._bitrev),
            "entries": sum(len(t) for t in self._tables.values()),
            "evictions": self.evictions,
            "generated_entries": self.generated_entries,
            "hits": self.hits,
            "misses": self.misses,
            "tables": len(self._tables),
        }


#: Shared process-wide cache used by the engines when none is supplied.
default_cache = TwiddleCache()
