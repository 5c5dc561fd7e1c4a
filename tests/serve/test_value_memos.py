"""Process-wide value memos behind per-cache counts.

Twiddle tables, bit-reversal permutations and plan entries are built
once per process; every :class:`TwiddleCache`, :class:`TwiddleLedger`
and :class:`PlanCache` still counts and prices its own hits and misses.
These tests pin that split: a fresh cache reports exactly what it
would report alone in a cold process, the memo keys carry the whole
identity of a value, and no cache hands out state another cache holds.
"""

import pytest

from repro.field import BABYBEAR, BN254_FR, GOLDILOCKS, TEST_FIELD_7681
from repro.hw import DGX_A100
from repro.hw.cost import Phase
from repro.ntt import twiddle
from repro.ntt.twiddle import TwiddleCache, bit_reverse_permutation
from repro.serve import FleetPolicy, FleetServer, WorkloadSpec, \
    generate_workload
from repro.serve import cache as serve_cache
from repro.serve.cache import PlanCache, TwiddleLedger

#: A dispatch stream's (field, n, direction) shapes, repeats included.
SHAPES = [
    (GOLDILOCKS, 256, "forward"), (BN254_FR, 1024, "inverse"),
    (GOLDILOCKS, 256, "forward"), (BABYBEAR, 64, "forward"),
    (BN254_FR, 1024, "forward"), (GOLDILOCKS, 256, "inverse"),
    (BN254_FR, 1024, "inverse"), (BABYBEAR, 64, "forward"),
]


def clear_memos():
    twiddle._memo_powers.cache_clear()
    twiddle._memo_bitrev.cache_clear()
    serve_cache._memo_plan.cache_clear()
    serve_cache._memo_tile.cache_clear()


def ledger_run(max_tables=None):
    ledger = TwiddleLedger(max_tables=max_tables)
    phases = [ledger.prepare(f, n, d) for f, n, d in SHAPES]
    return phases, ledger.stats(), ledger.shapes()


def plan_run():
    plans = PlanCache()
    chosen = [plans.choose(DGX_A100, f, n.bit_length() - 1, vectors)
              for (f, n, _), vectors in zip(SHAPES, (1, 3, 8, 2, 5, 1, 9, 4))]
    return chosen, plans.hits, plans.misses, plans.keys()


@pytest.mark.parametrize("max_tables", [None, 2])
def test_fresh_ledgers_report_what_each_would_alone(max_tables,
                                                    monkeypatch):
    clear_memos()
    alone = ledger_run(max_tables)
    phases, stats, _ = alone
    assert stats["misses"] > 0 and stats["hits"] > 0
    assert any(phase == Phase(name="serve-twiddle-gen", field_muls=512)
               for phase, _ in phases)
    # Warm memos: the values are never rebuilt, yet every fresh ledger
    # counts and prices each miss as its own.
    monkeypatch.setattr(twiddle, "vec_pow_series", _never)
    monkeypatch.setattr(twiddle, "bit_reverse_permutation", _never)
    assert ledger_run(max_tables) == alone
    assert ledger_run(max_tables) == alone


def test_interleaved_ledgers_keep_their_own_counts():
    clear_memos()
    alone = ledger_run()
    a, b = TwiddleLedger(), TwiddleLedger()
    got_a, got_b = [], []
    for shape in SHAPES:
        got_a.append(a.prepare(*shape))
        got_b.append(b.prepare(*shape))
    assert (got_a, a.stats()) == alone[:2]
    assert (got_b, b.stats()) == alone[:2]


def test_fresh_plan_caches_report_what_each_would_alone(monkeypatch):
    clear_memos()
    alone = plan_run()
    assert alone[1] > 0 and alone[2] > 0
    monkeypatch.setattr(serve_cache, "autotune_tile", _never)
    assert plan_run() == alone
    assert plan_run() == alone


def test_a_cold_plan_build_tunes_each_shape_once(monkeypatch):
    """The tile depends on (machine, field, size) alone: the four plans
    of a shape (two directions, two strategies) share one tuner run."""
    clear_memos()
    alone = plan_run()
    tuned = []
    clear_memos()
    monkeypatch.setattr(serve_cache, "autotune_tile", _Counted(tuned))
    assert plan_run() == alone
    shapes = {(DGX_A100.name, f.name, n) for f, n, _ in SHAPES}
    assert sorted(tuned) == sorted(shapes)


class _Counted:
    """``autotune_tile`` that records each (machine, field, n) it tunes."""

    def __init__(self, log: list):
        from repro.multigpu.autotune import autotune_tile

        self.log = log
        self.tune = autotune_tile

    def __call__(self, machine, field, n):
        self.log.append((machine.name, field.name, n))
        return self.tune(machine, field, n)


def test_fleets_in_one_process_report_identical_cache_counts():
    stream = generate_workload(WorkloadSpec(
        requests=10, log_sizes=(6, 7), field_names=("Goldilocks",),
        mean_interarrival_s=1e-4, seed=11))

    def serve():
        fleet = FleetServer(DGX_A100, abft=True,
                            policy=FleetPolicy(replicas=2))
        report = fleet.serve(stream)
        return ([(r.twiddle_hits, r.twiddle_misses, r.plan_hits,
                  r.plan_misses) for r in report.replica_reports],
                [d.steps for r in report.replica_reports
                 for d in r.dispatches])

    clear_memos()
    alone = serve()
    assert serve() == alone


def test_one_root_under_two_moduli_gives_two_tables():
    root, count = 3, 16
    cache = TwiddleCache()
    small = cache.powers(TEST_FIELD_7681, root, count)
    big = cache.powers(GOLDILOCKS, root, count)
    assert small == tuple(pow(root, i, TEST_FIELD_7681.modulus)
                          for i in range(count))
    assert big == tuple(pow(root, i, GOLDILOCKS.modulus)
                        for i in range(count))
    assert small != big
    assert cache.stats()["misses"] == 2


def test_a_table_is_not_state_shared_between_caches():
    field, n = GOLDILOCKS, 64
    first, second = TwiddleCache(), TwiddleCache()
    table = first.forward(field, n)
    perm = first.bitrev(n)
    want_table, want_perm = list(table), list(perm)
    # Caches share the memoized tuples, so no write can reach them.
    with pytest.raises(TypeError):
        table[1] = 0
    with pytest.raises(AttributeError):
        perm.reverse()
    assert list(second.forward(field, n)) == want_table
    assert list(second.bitrev(n)) == want_perm == bit_reverse_permutation(n)
    assert first.forward(field, n) is table


def _never(*args, **kwargs):
    raise AssertionError("a memoized value was rebuilt")
