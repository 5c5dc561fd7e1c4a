"""Tests for the two-level (multi-node) hierarchical engine."""

import pytest

from repro.errors import PartitionError, SimulationError
from repro.field import BLS12_381_FR, GOLDILOCKS, TEST_FIELD_7681
from repro.hw import DGX_A100, MultiNodeMachine, infiniband
from repro.hw.plancost import schedule_steps
from repro.multigpu import (
    BaselineFourStepEngine, CyclicLayout, DistributedVector,
    HierarchicalUniNTTEngine, SpectralLayout, UniNTTEngine,
    UniNTTExchangeLayout,
)
from repro.multigpu.schedule import LocalOp
from repro.ntt import ntt
from repro.sim import SimCluster

F = TEST_FIELD_7681


def make_engine(field=F, nodes=2, per_node=2):
    cluster = SimCluster(field, nodes * per_node, node_size=per_node)
    return HierarchicalUniNTTEngine(cluster)


def run_forward(field, nodes, per_node, n, rng):
    engine = make_engine(field, nodes, per_node)
    values = field.random_vector(n, rng)
    vec = DistributedVector.from_values(engine.cluster, values,
                                        engine.input_layout(n))
    return engine, values, engine.forward(vec)


#: The two-level stages over fanouts ``(N, P)`` -- the input, then each
#: level's exchanged and spectral layouts -- by their node-structure
#: names.
STAGES = {
    "NestedCyclicLayout": (CyclicLayout, {}),
    "IntraNodeExchangeLayout": (UniNTTExchangeLayout, {"level": 0}),
    "NodeSpectralLayout": (SpectralLayout, {"level": 0}),
    "InterNodeExchangeLayout": (UniNTTExchangeLayout, {"level": 1}),
    "NestedSpectralLayout": (SpectralLayout, {"level": 1}),
}


def two_level(stage, n, nodes, per_node):
    cls, extra = STAGES[stage]
    return cls(n=n, gpu_count=nodes * per_node, fanouts=(nodes, per_node),
               **extra)


class TestNestedLayouts:
    @pytest.mark.parametrize("stage", list(STAGES))
    @pytest.mark.parametrize("n,nodes,per_node", [(64, 2, 2), (256, 2, 4),
                                                  (256, 4, 2)])
    def test_bijection(self, stage, n, nodes, per_node):
        layout = two_level(stage, n, nodes, per_node)
        seen = set()
        for gpu in range(layout.gpu_count):
            for local in range(layout.shard_size):
                j = layout.global_index(gpu, local)
                assert layout.owner(j) == (gpu, local)
                seen.add(j)
        assert seen == set(range(n))

    def test_nested_cyclic_index_math(self):
        # n=64, N=2, P=2: j = (q*2 + s_gpu)*2 + s_node.
        layout = CyclicLayout(n=64, gpu_count=4, fanouts=(2, 2))
        assert layout.owner(0) == (0, 0)    # s_node=0, s_gpu=0, q=0
        assert layout.owner(1) == (2, 0)    # s_node=1 -> gpu 1*2+0=2
        assert layout.owner(2) == (1, 0)    # s_gpu=1 -> gpu 1
        assert layout.owner(4) == (0, 1)    # q=1

    def test_size_requirements(self):
        # Level 0 needs n >= G*P (M >= P^2), level 1 also n >= G*N.
        with pytest.raises(PartitionError, match=r"8 < 8\*4"):
            SpectralLayout(n=8, gpu_count=8, fanouts=(2, 4), level=0)
        with pytest.raises(PartitionError, match=r"16 < 8\*8"):
            SpectralLayout(n=16, gpu_count=8, fanouts=(8, 1))
        with pytest.raises(PartitionError, match="do not split"):
            CyclicLayout(n=64, gpu_count=8, fanouts=(2, 2))


class TestCorrectness:
    @pytest.mark.parametrize("nodes,per_node,n", [
        (2, 2, 64), (2, 4, 256), (4, 2, 256), (2, 2, 512),
    ])
    def test_forward_matches_reference(self, nodes, per_node, n, rng):
        engine, values, out = run_forward(F, nodes, per_node, n, rng)
        assert out.to_values() == ntt(F, values)
        assert out.layout == SpectralLayout(n=n, gpu_count=nodes * per_node,
                                            fanouts=(nodes, per_node))

    @pytest.mark.parametrize("field", [GOLDILOCKS, BLS12_381_FR],
                             ids=lambda f: f.name)
    def test_production_fields(self, field, rng):
        engine, values, out = run_forward(field, 2, 2, 64, rng)
        assert out.to_values() == ntt(field, values)

    @pytest.mark.parametrize("nodes,per_node,n", [(2, 2, 64), (2, 4, 256)])
    def test_roundtrip(self, nodes, per_node, n, rng):
        engine, values, out = run_forward(F, nodes, per_node, n, rng)
        back = engine.inverse(out)
        assert back.to_values() == values
        assert back.layout == CyclicLayout(n=n, gpu_count=nodes * per_node,
                                           fanouts=(nodes, per_node))
        engine.cluster.check_conservation()

    def test_requires_node_structure(self):
        cluster = SimCluster(F, 4)  # no node_size
        with pytest.raises(SimulationError, match="node structure"):
            HierarchicalUniNTTEngine(cluster)

    def test_size_validation(self):
        engine = make_engine(nodes=4, per_node=2)
        with pytest.raises(PartitionError, match="needs n >="):
            engine.forward_profile(16)


class TestTrafficSplit:
    def test_bytes_split_by_fabric(self, rng):
        nodes, per_node, n = 2, 4, 256
        engine, _, _ = run_forward(F, nodes, per_node, n, rng)
        cluster = engine.cluster
        by_level = cluster.trace.bytes_by_level()
        g = nodes * per_node
        m = n // g
        eb = cluster.element_bytes
        assert by_level["multi-gpu"] == g * m * (per_node - 1) // per_node * eb
        assert by_level["multi-node"] == g * m * (nodes - 1) // nodes * eb

    def test_inter_node_traffic_below_flat(self, rng):
        """The flat engine pushes (G-P)/G of its volume across nodes;
        hierarchical pushes only (N-1)/N of a single exchange."""
        nodes, per_node, n = 2, 4, 512
        g = nodes * per_node
        values = F.random_vector(n, rng)

        hier = make_engine(F, nodes, per_node)
        vec = DistributedVector.from_values(hier.cluster, values,
                                            hier.input_layout(n))
        hier.forward(vec)
        hier_inter = hier.cluster.trace.bytes_by_level()["multi-node"]

        flat_cluster = SimCluster(F, g, node_size=per_node)
        flat = UniNTTEngine(flat_cluster)
        vec = DistributedVector.from_values(flat_cluster, values,
                                            flat.input_layout(n))
        flat.forward(vec)
        flat_inter = flat_cluster.trace.bytes_by_level()["multi-node"]

        # Same inter-node volume for one exchange (the hierarchy's win
        # is moving the rest onto NVSwitch + fewer network messages).
        assert hier_inter == flat_inter
        hier_intra = hier.cluster.trace.bytes_by_level()["multi-gpu"]
        flat_intra = flat_cluster.trace.bytes_by_level().get("multi-gpu", 0)
        assert hier_intra > flat_intra

    def test_profile_matches_counters(self, rng):
        nodes, per_node, n = 2, 4, 256
        engine, _, out = run_forward(F, nodes, per_node, n, rng)
        engine.inverse(out)
        programs = [engine.program(n), engine.program(n, inverse=True)]
        profile = engine.forward_profile(n) + engine.inverse_profile(n)
        assert profile == [step for program in programs
                           for step in schedule_steps(program)]
        ops = [op for program in programs for op in program.ops]
        counters = engine.cluster.gpus[0].counters
        assert counters.bytes_sent == sum(
            op.sent_bytes_per_gpu(engine.gpu_count)[0] for op in ops
            if not isinstance(op, LocalOp))
        assert counters.field_muls == sum(
            op.field_muls_per_gpu for op in ops if isinstance(op, LocalOp))
        assert counters.mem_traffic_bytes == sum(
            op.mem_bytes_per_gpu for op in ops if isinstance(op, LocalOp))


class TestMultiNodeMachine:
    def test_levels(self):
        machine = MultiNodeMachine(name="t", node=DGX_A100, node_count=4,
                                   network=infiniband())
        names = [lvl.name for lvl in machine.levels(32)]
        assert names == ["multi-node", "multi-gpu", "gpu", "block", "warp"]
        assert machine.total_gpus == 32
        assert machine.level("multi-node", 32).fanout == 4

    def test_node_count_validation(self):
        from repro.errors import HardwareModelError
        with pytest.raises(HardwareModelError, match="node_count"):
            MultiNodeMachine(name="t", node=DGX_A100, node_count=1,
                             network=infiniband())

    def test_flattened(self):
        machine = MultiNodeMachine(name="t", node=DGX_A100, node_count=4,
                                   network=infiniband())
        flat = machine.flattened()
        assert flat.gpu_count == 32
        assert flat.interconnect.kind == "infiniband"

    def test_estimates_favor_hierarchy(self):
        machine = MultiNodeMachine(name="t", node=DGX_A100, node_count=4,
                                   network=infiniband())
        n = 1 << 24
        hier_cluster = SimCluster(BLS12_381_FR, 32, node_size=8)
        t_hier = HierarchicalUniNTTEngine(hier_cluster).estimate(
            machine, n).total_s
        flat_cluster = SimCluster(BLS12_381_FR, 32)
        flat = machine.flattened()
        t_flat_uni = UniNTTEngine(flat_cluster).estimate(flat, n).total_s
        t_flat_base = BaselineFourStepEngine(flat_cluster).estimate(
            flat, n).total_s
        assert t_hier < t_flat_uni < t_flat_base
