"""UniNTT's stage layouts, over random device levels.

Every stage of the recursion — the input (:class:`CyclicLayout`), each
level's exchanged (:class:`UniNTTExchangeLayout`) and spectral
(:class:`SpectralLayout`) layout — comes from one recursive slot map
over the fanouts.  These tests fuzz it over random fanout tuples (every
stage is a bijection whose derived views agree, and the memoized
relayout plan between any two stages round-trips the data), and pin
that the memoized derivations are keyed on the full layout value: two
layouts that differ only in fanouts or stage never share an entry.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.field import GOLDILOCKS
from repro.multigpu import (
    CyclicLayout, SpectralLayout, UniNTTExchangeLayout, collect,
    distribute,
)
from repro.multigpu.base import _twiddle_table, relayout_plan, twiddle_table
from repro.field.backend import numpy_available


def stages(n, g, fanouts):
    """Every stage of the recursion over ``fanouts``, input first."""
    out = [CyclicLayout(n=n, gpu_count=g, fanouts=fanouts)]
    for level in range(len(fanouts)):
        out.append(UniNTTExchangeLayout(n=n, gpu_count=g, fanouts=fanouts,
                                        level=level))
        out.append(SpectralLayout(n=n, gpu_count=g, fanouts=fanouts,
                                  level=level))
    return out


@st.composite
def recursions(draw):
    """(n, G, fanouts): fanouts outermost first, fanout-1 levels and up
    to four levels included, n at least G times the widest fanout."""
    exponents = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    fanouts = tuple(1 << e for e in exponents)
    g = 1 << sum(exponents)
    assume(g <= 32)
    floor = (g * max(fanouts)).bit_length() - 1
    n = 1 << draw(st.integers(max(floor, 1), max(floor, 1) + 2))
    return n, g, fanouts


def apply(plan, shards):
    inboxes = list(zip(*plan.outboxes(shards)))
    return [plan.assemble(dst, inbox) for dst, inbox in enumerate(inboxes)]


@given(recursion=recursions())
@settings(max_examples=60, deadline=None)
def test_every_stage_is_a_bijection(recursion):
    n, g, fanouts = recursion
    for layout in stages(n, g, fanouts):
        indices = layout.shard_indices()
        assert sorted(j for shard in indices for j in shard) \
            == list(range(n))
        for gpu in range(g):
            for local in range(layout.shard_size):
                j = layout.global_index(gpu, local)
                assert indices[gpu][local] == j
                assert layout.owner(j) == (gpu, local)


@given(recursion=recursions(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_relayout_plans_round_trip(recursion, data):
    n, g, fanouts = recursion
    layouts = stages(n, g, fanouts)
    source = data.draw(st.sampled_from(layouts))
    target = data.draw(st.sampled_from(layouts))
    values = list(range(n))
    shards = distribute(values, source)
    moved = apply(relayout_plan(source, target), shards)
    assert collect(moved, target) == values
    assert apply(relayout_plan(target, source), moved) == shards


def test_exchanged_and_spectral_share_a_slot_map_not_a_value():
    """A level's exchanged layout reads the outer digit as the unit, its
    spectral layout as the spectrum digit: same slots, two values."""
    for level in range(3):
        exchanged = UniNTTExchangeLayout(n=1 << 8, gpu_count=16,
                                         fanouts=(2, 2, 4), level=level)
        spectral = SpectralLayout(n=1 << 8, gpu_count=16,
                                  fanouts=(2, 2, 4), level=level)
        assert exchanged.slot_bits == spectral.slot_bits
        assert exchanged != spectral


def test_one_level_defaults_name_one_value():
    """The flat layouts' defaults are the one-level members, so an engine
    and its caller build equal values."""
    assert CyclicLayout(n=64, gpu_count=4) \
        == CyclicLayout(n=64, gpu_count=4, fanouts=(4,))
    assert SpectralLayout(n=64, gpu_count=4) \
        == SpectralLayout(n=64, gpu_count=4, fanouts=[4], level=0)
    assert SpectralLayout(n=64, gpu_count=4, fanouts=(2, 2)) \
        == SpectralLayout(n=64, gpu_count=4, fanouts=(2, 2), level=1)


# -- memo identity -----------------------------------------------------------

N, G = 64, 4
#: Values that differ only in fanouts or stage.
VARIANTS = [layout for fanouts in ((4,), (2, 2), (4, 1), (1, 4))
            for layout in stages(N, G, fanouts)]


def test_variants_are_distinct_values():
    assert len(set(VARIANTS)) == len(VARIANTS)


def test_relayout_plans_are_never_shared():
    target = CyclicLayout(n=N, gpu_count=G)
    relayout_plan.cache_clear()
    plans = [relayout_plan(layout, target) for layout in VARIANTS]
    info = relayout_plan.cache_info()
    assert (info.hits, info.misses) == (0, len(VARIANTS))
    for layout, plan in zip(VARIANTS, plans):
        shards = distribute(list(range(N)), layout)
        assert collect(apply(plan, shards), target) == list(range(N))
    relayout_plan.cache_clear()


def test_twiddle_tables_are_never_shared():
    field = GOLDILOCKS
    root = field.root_of_unity(N)
    rows = [pow(root, s * k, field.modulus)
            for s in range(2) for k in range(N // 2)]
    _twiddle_table.cache_clear()
    tables = [twiddle_table(field, root, range(2), N // 2, layout=layout)
              for layout in VARIANTS]
    info = _twiddle_table.cache_info()
    assert (info.hits, info.misses) == (0, len(VARIANTS))
    for layout, table in zip(VARIANTS, tables):
        assert list(table.values) == [
            rows[j] for shard in layout.shard_indices() for j in shard]
    _twiddle_table.cache_clear()


@pytest.mark.skipif(not numpy_available(), reason="needs numpy")
def test_packed_gather_indices_are_never_shared():
    from repro.multigpu.polynomial import _layout_indices

    _layout_indices.cache_clear()
    gathers = [_layout_indices(layout) for layout in VARIANTS]
    info = _layout_indices.cache_info()
    assert (info.hits, info.misses) == (0, len(VARIANTS))
    for layout, gather in zip(VARIANTS, gathers):
        assert [list(idx) for idx in gather] \
            == [list(shard) for shard in layout.shard_indices()]
    _layout_indices.cache_clear()
