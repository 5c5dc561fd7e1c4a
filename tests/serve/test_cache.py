"""Plan and twiddle caches: pinned hit/miss counts, zero-recompute hits."""

import pytest

from repro.errors import ServeError
from repro.field import BN254_FR, GOLDILOCKS, TEST_FIELD_7681
from repro.hw import DGX_A100
from repro.serve import PlanCache, TwiddleLedger
from repro.serve.cache import PLAN_MISS_MESSAGES


class TestPlanCache:
    def test_hit_miss_counts_are_pinned(self):
        cache = PlanCache()
        # First choose plans both strategies: exactly two misses.
        _, misses = cache.choose(DGX_A100, GOLDILOCKS, 10, vectors=8)
        assert misses == 2
        assert (cache.hits, cache.misses) == (0, 2)
        # The identical shape again: all hits, no new entries.
        _, misses = cache.choose(DGX_A100, GOLDILOCKS, 10, vectors=8)
        assert misses == 0
        assert (cache.hits, cache.misses, len(cache)) == (2, 2, 2)
        # A different size is a different key.
        cache.choose(DGX_A100, GOLDILOCKS, 12, vectors=8)
        assert (cache.hits, cache.misses, len(cache)) == (2, 4, 4)

    def test_choose_picks_the_cheaper_strategy(self):
        cache = PlanCache()
        entry, _ = cache.choose(DGX_A100, GOLDILOCKS, 10, vectors=16)
        rep, _ = cache.lookup(DGX_A100, GOLDILOCKS, 10, "replicate")
        spl, _ = cache.lookup(DGX_A100, GOLDILOCKS, 10, "split")
        best = min((rep, spl),
                   key=lambda e: (e.batch_seconds(16), e.strategy))
        assert entry == best

    def test_split_unavailable_below_g_squared(self):
        cache = PlanCache()
        # 2^4 = 16 < 8*8: split cannot run on an 8-GPU machine.
        entry, _ = cache.lookup(DGX_A100, GOLDILOCKS, 4, "split")
        assert not entry.available
        with pytest.raises(ServeError):
            entry.batch_seconds(1)
        chosen, _ = cache.choose(DGX_A100, GOLDILOCKS, 4, vectors=4)
        assert chosen.strategy == "replicate"
        with pytest.raises(ServeError):
            cache.choose(DGX_A100, GOLDILOCKS, 4, vectors=4, force="split")

    def test_replicate_scales_by_gpu_slots_split_by_vectors(self):
        cache = PlanCache()
        rep, _ = cache.lookup(DGX_A100, GOLDILOCKS, 10, "replicate")
        spl, _ = cache.lookup(DGX_A100, GOLDILOCKS, 10, "split")
        # 8 GPUs: 1..8 vectors replicate in one slot, 9 need two.
        assert rep.batch_seconds(8) == rep.batch_seconds(1)
        assert rep.batch_seconds(9) == 2 * rep.batch_seconds(1)
        assert spl.batch_seconds(3) == 3 * spl.batch_seconds(1)

    def test_plan_miss_price_is_nonzero(self):
        assert PLAN_MISS_MESSAGES > 0

    def test_direction_is_part_of_the_key(self):
        cache = PlanCache()
        cache.choose(DGX_A100, GOLDILOCKS, 10, vectors=8)
        _, misses = cache.choose(DGX_A100, GOLDILOCKS, 10, vectors=8,
                                 direction="inverse")
        assert misses == 2
        assert cache.keys() == tuple(
            ("DGX-A100", "Goldilocks", 10, direction, strategy)
            for direction in ("forward", "inverse")
            for strategy in ("replicate", "split"))
        with pytest.raises(ServeError, match="direction"):
            cache.lookup(DGX_A100, GOLDILOCKS, 10, "split", "sideways")

    def test_inverse_batches_are_priced_with_their_scale_pass(self):
        """Over every machine, BN254-Fr/Goldilocks, 2^4..2^22 and 1..64
        vectors, pricing inverse batches as inverses changes exactly one
        choice: three 2^20-point BN254-Fr inverses on a DGX-A100, whose
        1/n pass tips replicate over to split."""
        cache = PlanCache()
        forward, _ = cache.choose(DGX_A100, BN254_FR, 20, vectors=3)
        inverse, _ = cache.choose(DGX_A100, BN254_FR, 20, vectors=3,
                                  direction="inverse")
        assert (forward.strategy, inverse.strategy) == ("replicate", "split")
        assert (forward.direction, inverse.direction) == ("forward",
                                                          "inverse")
        rep, _ = cache.lookup(DGX_A100, BN254_FR, 20, "replicate",
                              "inverse")
        assert rep.unit_seconds > cache.lookup(
            DGX_A100, BN254_FR, 20, "replicate")[0].unit_seconds


class TestTwiddleLedger:
    def test_hits_are_charged_zero_recompute(self):
        ledger = TwiddleLedger()
        phase, hit = ledger.prepare(TEST_FIELD_7681, 64, "forward")
        assert not hit
        assert phase is not None and phase.field_muls > 0
        generated = ledger.cache.generated_entries
        # The identical shape again: a hit, and nothing regenerated.
        for _ in range(3):
            phase, hit = ledger.prepare(TEST_FIELD_7681, 64, "forward")
            assert hit
            assert phase is None  # zero recompute charged
        assert ledger.cache.generated_entries == generated

    def test_direction_and_size_are_distinct_tables(self):
        ledger = TwiddleLedger()
        _, hit = ledger.prepare(TEST_FIELD_7681, 64, "forward")
        assert not hit
        phase, hit = ledger.prepare(TEST_FIELD_7681, 64, "inverse")
        assert not hit and phase is not None
        _, hit = ledger.prepare(TEST_FIELD_7681, 32, "forward")
        assert not hit

    def test_bounded_ledger_evicts_and_recharges(self):
        ledger = TwiddleLedger(max_tables=1)
        ledger.prepare(TEST_FIELD_7681, 64, "forward")
        ledger.prepare(TEST_FIELD_7681, 32, "forward")  # evicts the 64
        assert ledger.stats()["evictions"] >= 1
        phase, hit = ledger.prepare(TEST_FIELD_7681, 64, "forward")
        assert not hit and phase is not None  # regenerated, recharged
