"""Tests for the generic redistribution collective."""

import itertools

import pytest

from repro.analysis.interp import interpret_schedule
from repro.analysis.synth import synthesize_hierarchical
from repro.errors import PartitionError
from repro.field import GOLDILOCKS, TEST_FIELD_97, use_backend
from repro.field.backend import numpy_available
from repro.multigpu import (
    BlockLayout, ColumnBlockLayout, CyclicLayout, DistributedVector,
    SpectralLayout, UniNTTExchangeLayout, collect,
    distribute, redistribute,
)
from repro.multigpu.base import exchange_counts
from repro.multigpu.schedule import ALL_ON, build_unintt_schedule
from repro.sim import SimCluster

F = TEST_FIELD_97


def layouts_for(n, g):
    layouts = [BlockLayout(n=n, gpu_count=g), CyclicLayout(n=n, gpu_count=g)]
    if n >= g * g:
        layouts.append(SpectralLayout(n=n, gpu_count=g))
        layouts.append(UniNTTExchangeLayout(n=n, gpu_count=g))
    return layouts


class TestRedistribute:
    @pytest.mark.parametrize("n,g", [(16, 2), (64, 4)])
    def test_all_layout_pairs_preserve_values(self, n, g):
        values = [v % F.modulus for v in range(n)]
        for src, dst in itertools.permutations(layouts_for(n, g), 2):
            cluster = SimCluster(F, g)
            cluster.load_shards(distribute(values, src))
            redistribute(cluster, src, dst)
            assert collect(cluster.peek_shards(), dst) == values, \
                (type(src).__name__, type(dst).__name__)
            cluster.check_conservation()

    def test_block_to_cyclic_bytes(self):
        """Hand-check byte counts: block->cyclic moves (g-1)/g of data."""
        n, g = 16, 4
        values = list(range(n))
        src = BlockLayout(n=n, gpu_count=g)
        dst = CyclicLayout(n=n, gpu_count=g)
        cluster = SimCluster(F, g)
        cluster.load_shards(distribute(values, src))
        redistribute(cluster, src, dst)
        eb = cluster.element_bytes
        per_gpu = (n // g) * (g - 1) // g * eb
        for gpu in cluster.gpus:
            assert gpu.counters.bytes_sent == per_gpu

    def test_identity_redistribution_moves_nothing(self):
        n, g = 16, 2
        layout = BlockLayout(n=n, gpu_count=g)
        cluster = SimCluster(F, g)
        cluster.load_shards(distribute(list(range(n)), layout))
        redistribute(cluster, layout, layout)
        assert all(gpu.counters.bytes_sent == 0 for gpu in cluster.gpus)
        # but it still records the (empty) collective
        assert cluster.trace.count("all-to-all") == 1

    def test_mismatched_layouts_rejected(self):
        cluster = SimCluster(F, 2)
        cluster.load_shards([[1, 2], [3, 4]])
        with pytest.raises(PartitionError, match="mismatch"):
            redistribute(cluster, BlockLayout(n=4, gpu_count=2),
                         BlockLayout(n=8, gpu_count=2))

    def test_wrong_cluster_size_rejected(self):
        cluster = SimCluster(F, 2)
        with pytest.raises(PartitionError):
            redistribute(cluster, BlockLayout(n=16, gpu_count=4),
                         CyclicLayout(n=16, gpu_count=4))

    def test_detail_recorded(self):
        n, g = 16, 2
        cluster = SimCluster(F, g)
        src = BlockLayout(n=n, gpu_count=g)
        dst = CyclicLayout(n=n, gpu_count=g)
        cluster.load_shards(distribute(list(range(n)), src))
        redistribute(cluster, src, dst, detail="my-transpose")
        assert cluster.trace.events[-1].detail == "my-transpose"


@pytest.mark.skipif(not numpy_available(), reason="needs numpy")
@pytest.mark.parametrize("node_size", [None, 4], ids=["flat", "staged"])
def test_relayout_leaves_plain_ints_on_numpy(node_size):
    """Relayouts install assembled shards without re-normalizing them:
    values the lane kernels hand back stay plain ints through both the
    direct and the staged (per-node scratch) relayout."""
    n, g = 1 << 10, 8
    schedule = build_unintt_schedule(
        n, g, 8, ALL_ON.without("keep_permuted_output"))
    assert schedule.ops[-1].name == "unintt-materialize"
    if node_size:
        schedule, _ = synthesize_hierarchical(schedule, node_size)
    values = [v * 7919 % GOLDILOCKS.modulus for v in range(n)]
    with use_backend("numpy"):
        cluster = SimCluster(GOLDILOCKS, g, node_size=node_size)
        interpret_schedule(schedule, cluster, values)
    assert all(type(v) is int for gpu in cluster.gpus for v in gpu.shard)


@pytest.mark.skipif(not numpy_available(), reason="needs numpy")
@pytest.mark.parametrize("packed", [False, True], ids=["scalars", "lanes"])
def test_staging_leaves_plain_ints_on_numpy(packed):
    """from_values normalizes once and installs the shards directly:
    numpy integer inputs (a list of scalars or a 1-D lane array) land
    as plain ints on every GPU."""
    import numpy as np

    n, g = 256, 4
    values = np.arange(n, dtype=np.uint64) * np.uint64(7919)
    staged = values if packed else list(values)
    with use_backend("numpy"):
        cluster = SimCluster(GOLDILOCKS, g)
        vec = DistributedVector.from_values(
            cluster, staged, CyclicLayout(n=n, gpu_count=g))
    assert all(type(v) is int for gpu in cluster.gpus for v in gpu.shard)
    assert vec.to_values() == [int(v) for v in values]


def identity_counts(g, per_gpu):
    return [[per_gpu if src == dst else 0 for dst in range(g)]
            for src in range(g)]


class TestExchangeCountsPerLayoutValue:
    """Counts belong to the full layout value, not just (type, n, G)."""

    def test_nodes_is_part_of_the_layout(self):
        target = CyclicLayout(n=64, gpu_count=4)
        two_nodes = CyclicLayout(n=64, gpu_count=4, fanouts=(2, 2))
        four_nodes = CyclicLayout(n=64, gpu_count=4, fanouts=(4, 1))
        assert exchange_counts(two_nodes, target) == [
            [16, 0, 0, 0], [0, 0, 16, 0], [0, 16, 0, 0], [0, 0, 0, 16]]
        assert exchange_counts(four_nodes, target) == identity_counts(4, 16)

    def test_rows_and_cols_are_part_of_the_layout(self):
        target = CyclicLayout(n=64, gpu_count=4)
        wide = ColumnBlockLayout(n=64, gpu_count=4, rows=4, cols=16)
        tall = ColumnBlockLayout(n=64, gpu_count=4, rows=16, cols=4)
        assert exchange_counts(wide, target) == [[4] * 4] * 4
        assert exchange_counts(tall, target) == identity_counts(4, 16)

    def test_redistribute_follows_the_layout_value(self):
        values = list(range(64))
        target = CyclicLayout(n=64, gpu_count=4)
        for nodes in (2, 4, 1):
            source = CyclicLayout(n=64, gpu_count=4,
                                  fanouts=(nodes, 4 // nodes))
            cluster = SimCluster(F, 4)
            cluster.load_shards(distribute(values, source))
            redistribute(cluster, source, target)
            assert collect(cluster.peek_shards(), target) == values
