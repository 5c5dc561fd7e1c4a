"""Tests for twiddle tables and bit reversal."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import NTTError
from repro.field import TEST_FIELD_7681
from repro.ntt import (
    TwiddleCache, bit_reverse, bit_reverse_permutation, radix2,
)

F = TEST_FIELD_7681


class TestBitReverse:
    @pytest.mark.parametrize("value,bits,expected", [
        (0b001, 3, 0b100),
        (0b110, 3, 0b011),
        (0b1011, 4, 0b1101),
        (0, 5, 0),
        (1, 1, 1),
    ])
    def test_values(self, value, bits, expected):
        assert bit_reverse(value, bits) == expected

    @given(st.integers(min_value=0, max_value=255))
    def test_involution(self, value):
        assert bit_reverse(bit_reverse(value, 8), 8) == value

    def test_permutation_is_involution(self):
        perm = bit_reverse_permutation(16)
        assert sorted(perm) == list(range(16))
        assert [perm[perm[i]] for i in range(16)] == list(range(16))

    def test_permutation_size_validation(self):
        with pytest.raises(NTTError, match="power-of-two"):
            bit_reverse_permutation(12)

    def test_permutation_known(self):
        assert bit_reverse_permutation(8) == [0, 4, 2, 6, 1, 5, 3, 7]


class TestCache:
    def test_powers_content(self):
        cache = TwiddleCache()
        table = cache.powers(F, 2, 5)
        assert table == (1, 2, 4, 8, 16)

    def test_powers_cached_identity(self):
        cache = TwiddleCache()
        assert cache.powers(F, 3, 10) is cache.powers(F, 3, 10)

    def test_forward_table_is_half(self):
        cache = TwiddleCache()
        assert len(cache.forward(F, 64)) == 32
        assert len(cache.forward(F, 1)) == 1

    def test_forward_inverse_related(self):
        cache = TwiddleCache()
        fwd = cache.forward(F, 16)
        inv = cache.inverse(F, 16)
        p = F.modulus
        for a, b in zip(fwd, inv):
            assert a * b % p == 1

    def test_bitrev_cached(self):
        cache = TwiddleCache()
        assert cache.bitrev(16) is cache.bitrev(16)

    def test_clear_and_stats(self):
        cache = TwiddleCache()
        cache.forward(F, 32)
        cache.bitrev(32)
        stats = cache.stats()
        assert stats["tables"] == 1
        assert stats["entries"] == 16
        assert stats["bitrev_tables"] == 1
        cache.clear()
        stats = cache.stats()
        assert (stats["tables"], stats["entries"],
                stats["bitrev_tables"]) == (0, 0, 0)
        # Counters survive a clear: they are lifetime service history.
        assert stats["misses"] == 1

    def test_keyed_by_field_and_root(self):
        from repro.field import TEST_FIELD_97
        cache = TwiddleCache()
        cache.powers(F, 2, 4)
        cache.powers(TEST_FIELD_97, 2, 4)
        cache.powers(F, 3, 4)
        assert cache.stats()["tables"] == 3

    def test_hit_miss_counts_pinned(self):
        """Repeated identical shapes must hit; hits generate nothing."""
        cache = TwiddleCache()
        for _ in range(5):
            cache.forward(F, 64)
        cache.inverse(F, 64)
        cache.inverse(F, 64)
        stats = cache.stats()
        assert stats["misses"] == 2   # one forward table, one inverse
        assert stats["hits"] == 5     # 4 forward re-uses + 1 inverse
        # Generation work equals the missed tables' entries exactly:
        # a hit is charged zero recompute.
        assert stats["generated_entries"] == 32 + 32

    def test_lru_eviction_accounting(self):
        cache = TwiddleCache(max_tables=2)
        cache.powers(F, 2, 4)
        cache.powers(F, 3, 4)
        cache.powers(F, 2, 4)   # touch: 2 becomes most recent
        cache.powers(F, 5, 4)   # evicts root-3 table (LRU)
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["tables"] == 2
        assert cache.contains(F, 2, 4)
        assert not cache.contains(F, 3, 4)
        cache.powers(F, 3, 4)   # regenerating the evicted table misses
        assert cache.stats()["misses"] == 4

    def test_max_tables_validation(self):
        with pytest.raises(NTTError, match="max_tables"):
            TwiddleCache(max_tables=0)

    def test_handed_out_tables_are_read_only(self):
        cache = TwiddleCache()
        values = F.random_vector(16, random.Random(5))
        before = radix2.ntt(F, values, cache)
        for table in (cache.forward(F, 16), cache.inverse(F, 16),
                      cache.powers(F, 3, 8)):
            with pytest.raises(TypeError):
                table[1] = 7
        with pytest.raises(TypeError):
            cache.bitrev(16)[0] = 1
        assert radix2.ntt(F, values, cache) == before
        assert radix2.ntt(F, values, cache) == radix2.ntt(
            F, values, TwiddleCache())

    def test_reset_stats_keeps_tables(self):
        cache = TwiddleCache()
        cache.forward(F, 16)
        cache.reset_stats()
        stats = cache.stats()
        assert stats["hits"] == stats["misses"] == 0
        assert stats["tables"] == 1
        cache.forward(F, 16)
        assert cache.stats()["hits"] == 1


class TestPackedPowersKey:
    """The scale factor is part of a packed mirror's identity."""

    @staticmethod
    def pack(values):
        import numpy as np

        return np.array(values, dtype=np.uint64)

    def test_scaled_and_plain_tables_never_collide(self):
        pytest.importorskip("numpy")
        cache = TwiddleCache()
        p, root, count = F.modulus, 17, 16
        plain = cache.packed_powers(F, root, count, self.pack, fmt="f")
        half = cache.packed_powers(F, root, count, self.pack, fmt="f",
                                   scale=F.inv(2))
        third = cache.packed_powers(F, root, count, self.pack, fmt="f",
                                    scale=F.inv(3))
        assert plain.tolist() == [pow(root, i, p) for i in range(count)]
        assert half.tolist() == [pow(root, i, p) * F.inv(2) % p
                                 for i in range(count)]
        assert third.tolist() != half.tolist()
        # Either order of first use gives the same three tables.
        other = TwiddleCache()
        assert other.packed_powers(F, root, count, self.pack, fmt="f",
                                   scale=F.inv(2)).tolist() == half.tolist()
        assert other.packed_powers(F, root, count, self.pack,
                                   fmt="f").tolist() == plain.tolist()
        # A scale of 1 (mod p) is the plain table itself.
        assert cache.packed_powers(F, root, count, self.pack, fmt="f",
                                   scale=p + 1) is plain
        # The int table is shared and generated once.
        assert cache.stats()["misses"] == 1

    def test_handed_out_tables_are_read_only(self):
        pytest.importorskip("numpy")
        cache = TwiddleCache()
        for scale in (1, 5):
            table = cache.packed_powers(F, 3, 8, self.pack, fmt="f",
                                        scale=scale)
            before = table.tolist()
            with pytest.raises(ValueError):
                table[0] = 0
            assert cache.packed_powers(F, 3, 8, self.pack, fmt="f",
                                       scale=scale).tolist() == before

    def test_eviction_drops_every_scaled_mirror(self):
        pytest.importorskip("numpy")
        cache = TwiddleCache(max_tables=1)
        cache.packed_powers(F, 3, 8, self.pack, fmt="f")
        cache.packed_powers(F, 3, 8, self.pack, fmt="f", scale=5)
        cache.powers(F, 7, 8)  # evicts the root-3 table and its mirrors
        assert cache.stats()["evictions"] == 1
        cache.packed_powers(F, 3, 8, self.pack, fmt="f", scale=5)
        assert cache.stats()["misses"] == 3
