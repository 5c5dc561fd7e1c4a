"""Hypothesis property tests over the distributed engines and layouts.

Randomized shapes (GPU count, size, data, engine, options) must always
reproduce the single-node transform — the suite's broadest net for
index-math mistakes.  The layout half checks every map the layouts
derive from their one ``global_index`` definition (owner, exchange
counts, relayout messages) against the per-element destination-slot
walk, kept here as the reference oracle.
"""

from dataclasses import dataclass

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.analysis.interp import _staged_redistribute
from repro.analysis.synth import route_via
from repro.errors import PartitionError
from repro.field import TEST_FIELD_7681
from repro.multigpu import (
    BaselineFourStepEngine, BitrevSpectralLayout, BlockLayout,
    ColumnBlockLayout, CyclicLayout, DistributedVector, Layout,
    PairwiseExchangeEngine, SingleGpuEngine, SpectralLayout,
    TransposedBlockLayout, UniNTTEngine, UniNTTExchangeLayout,
    UniNTTOptions, collect, distribute, redistribute,
)
from repro.multigpu.base import exchange_counts
from repro.ntt import ntt
from repro.sim import SimCluster

F = TEST_FIELD_7681

# GF(7681) supports sizes up to 512 (two-adicity 9).
shapes = st.tuples(
    st.sampled_from([2, 4, 8]),          # gpu count
    st.sampled_from([6, 7, 8, 9]),       # log2 size
).filter(lambda t: (1 << t[1]) >= t[0] * t[0] * 4)


@given(shape=shapes, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=20)
def test_unintt_bit_exact_any_shape(shape, seed):
    import random

    g, log_n = shape
    n = 1 << log_n
    rng = random.Random(seed)
    values = F.random_vector(n, rng)
    cluster = SimCluster(F, g)
    engine = UniNTTEngine(cluster)
    vec = DistributedVector.from_values(cluster, values,
                                        engine.input_layout(n))
    out = engine.forward(vec)
    assert out.to_values() == ntt(F, values)
    assert engine.inverse(out).to_values() == values


@given(shape=shapes, seed=st.integers(min_value=0, max_value=2**16),
       engine_index=st.integers(min_value=0, max_value=2))
@settings(max_examples=15)
def test_all_engines_agree(shape, seed, engine_index):
    import random

    g, log_n = shape
    n = 1 << log_n
    rng = random.Random(seed)
    values = F.random_vector(n, rng)
    engine_cls = [SingleGpuEngine, BaselineFourStepEngine,
                  PairwiseExchangeEngine][engine_index]
    cluster = SimCluster(F, g)
    engine = engine_cls(cluster)
    vec = DistributedVector.from_values(cluster, values,
                                        engine.input_layout(n))
    assert engine.forward(vec).to_values() == ntt(F, values)


@given(seed=st.integers(min_value=0, max_value=2**16),
       flags=st.tuples(st.booleans(), st.booleans(), st.booleans(),
                       st.booleans()))
@settings(max_examples=15)
def test_options_never_change_results(seed, flags):
    import random

    rng = random.Random(seed)
    n, g = 256, 4
    values = F.random_vector(n, rng)
    options = UniNTTOptions(fused_twiddle=flags[0],
                            keep_permuted_output=flags[1],
                            overlap=flags[2], radix_fusion=flags[3])
    cluster = SimCluster(F, g)
    engine = UniNTTEngine(cluster, options=options)
    vec = DistributedVector.from_values(cluster, values,
                                        engine.input_layout(n))
    assert engine.forward(vec).to_values() == ntt(F, values)


@given(seed=st.integers(min_value=0, max_value=2**16),
       g=st.sampled_from([2, 4, 8]))
@settings(max_examples=20)
def test_distribute_collect_roundtrip_property(seed, g):
    import random

    rng = random.Random(seed)
    n = 64 * g
    values = F.random_vector(n, rng)
    layout = CyclicLayout(n=n, gpu_count=g)
    assert collect(distribute(values, layout), layout) == values


# -- layouts against the destination-slot walk --------------------------------

LAYOUT_CLASSES = (
    BlockLayout, CyclicLayout, SpectralLayout, UniNTTExchangeLayout,
    ColumnBlockLayout, TransposedBlockLayout, BitrevSpectralLayout,
)
_SHAPED = (ColumnBlockLayout, TransposedBlockLayout)
_STAGED = (CyclicLayout, SpectralLayout, UniNTTExchangeLayout)


@st.composite
def fanout_tuples(draw, g):
    """Device levels, outermost first, multiplying to ``g`` (fanout-1
    levels included)."""
    cuts = sorted(draw(st.lists(st.integers(0, g.bit_length() - 1),
                                max_size=3)))
    bounds = [0, *cuts, g.bit_length() - 1]
    return tuple(1 << (hi - lo) for lo, hi in zip(bounds, bounds[1:]))


@st.composite
def layouts(draw, n, g):
    """Any valid instance of any layout class with this n and G."""
    cls = draw(st.sampled_from(LAYOUT_CLASSES))
    extra = {}
    if cls in _SHAPED:
        rows = 1 << draw(st.integers(0, n.bit_length() - 1))
        extra = {"rows": rows, "cols": n // rows}
    elif cls in _STAGED:
        extra = {"fanouts": draw(fanout_tuples(g))}
        if cls is not CyclicLayout:
            depth = len(extra["fanouts"])
            extra["level"] = draw(st.integers(-depth, depth - 1))
    try:
        return cls(n=n, gpu_count=g, **extra)
    except PartitionError:
        assume(False)


@st.composite
def layout_pairs(draw):
    log_g = draw(st.integers(0, 4))
    n = 1 << draw(st.integers(max(2 * log_g, 1), 9))
    g = 1 << log_g
    return draw(layouts(n, g)), draw(layouts(n, g))


def walk(source, target, shards):
    """Reference relayout: visit every destination slot in order and
    look up the element's current slot by brute force.

    Returns ``(counts, messages)``: ``messages[src][dst]`` holds the
    values GPU ``src`` sends GPU ``dst``, in destination-slot order.
    """
    g, m = source.gpu_count, source.shard_size
    where = {source.global_index(gpu, local): (gpu, local)
             for gpu in range(g) for local in range(m)}
    counts = [[0] * g for _ in range(g)]
    messages = [[[] for _ in range(g)] for _ in range(g)]
    for dst in range(g):
        for local in range(target.shard_size):
            src, src_local = where[target.global_index(dst, local)]
            counts[src][dst] += 1
            messages[src][dst].append(shards[src][src_local])
    return counts, messages


class _RecordingCluster(SimCluster):
    """Keeps every outbox matrix handed to ``all_to_all``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sent = []

    def all_to_all(self, outboxes, detail=""):
        self.sent.append([[list(msg) for msg in row] for row in outboxes])
        return super().all_to_all(outboxes, detail=detail)


@given(pair=layout_pairs())
@settings(max_examples=60)
def test_owner_inverts_global_index(pair):
    for layout in pair:
        for gpu in range(layout.gpu_count):
            for local in range(layout.shard_size):
                j = layout.global_index(gpu, local)
                assert layout.owner(j) == (gpu, local)
                assert layout.shard_indices()[gpu][local] == j


@given(pair=layout_pairs())
@settings(max_examples=60)
def test_exchange_counts_match_the_walk(pair):
    source, target = pair
    shards = distribute(list(range(source.n)), source)
    assert exchange_counts(source, target) == walk(source, target, shards)[0]


@given(pair=layout_pairs())
@settings(max_examples=40)
def test_redistribute_sends_the_walk_messages(pair):
    source, target = pair
    values = list(range(source.n))
    cluster = _RecordingCluster(F, source.gpu_count)
    cluster.load_shards(distribute(values, source))
    _, messages = walk(source, target, cluster.peek_shards())
    redistribute(cluster, source, target)
    assert cluster.sent == [messages]
    assert collect(cluster.peek_shards(), target) == values


@given(pair=layout_pairs(), data=st.data())
@settings(max_examples=40)
def test_staged_redistribute_sends_the_walk_messages(pair, data):
    source, target = pair
    g = source.gpu_count
    ns = 1 << data.draw(st.integers(0, g.bit_length() - 1))
    values = list(range(source.n))
    cluster = _RecordingCluster(F, g, node_size=ns)
    cluster.load_shards(distribute(values, source))
    _, messages = walk(source, target, cluster.peek_shards())
    _staged_redistribute(cluster, source, target, "relayout")
    stage = [[[] for _ in range(g)] for _ in range(g)]
    rail = [[[] for _ in range(g)] for _ in range(g)]
    for src in range(g):
        for dst in range(g):
            via = route_via(src, dst, ns)
            stage[src][via].extend(messages[src][dst])
    for via in range(g):
        for dst in range(g):
            for src in range(g):
                if via != dst and route_via(src, dst, ns) == via:
                    rail[via][dst].extend(messages[src][dst])
    assert cluster.sent == [stage, rail]
    assert collect(cluster.peek_shards(), target) == values


@dataclass(frozen=True)
class _RotatedLayout(Layout):
    """Block layout rotated by one slot: a bijection, not a bit
    permutation of the slot bits."""

    def global_index(self, gpu: int, local: int) -> int:
        self._check_slot(gpu, local)
        return (gpu * self.shard_size + local + 1) % self.n


@pytest.mark.parametrize("n,g", [(2, 1), (16, 4), (64, 2)])
def test_non_bit_permutation_layout_is_rejected(n, g):
    layout = _RotatedLayout(n=n, gpu_count=g)
    with pytest.raises(PartitionError, match="bit permutation"):
        layout.owner(0)
    with pytest.raises(PartitionError, match="bit permutation"):
        exchange_counts(layout, BlockLayout(n=n, gpu_count=g))
