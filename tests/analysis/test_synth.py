"""Hierarchical schedule synthesis: staging is conservative and gated."""

import pytest

from repro.analysis.passes import verify_rewrite
from repro.analysis.plancheck import check_cost, verify_schedule
from repro.analysis.synth import (
    enumerate_candidates, route_via, split_exchange,
    synthesize_hierarchical,
)
from repro.errors import SchedulePassError
from repro.field import BLS12_381_FR, GOLDILOCKS
from repro.hw import DGX_A100, FOUR_NODE_DGX_A100, machine_by_name
from repro.multigpu.schedule import (
    ExchangeOp, build_unintt_schedule,
)

EB = 8


def flat_exchange(n=1024, gpus=8):
    schedule = build_unintt_schedule(n, gpus, EB)
    return next(op for op in schedule.ops
                if isinstance(op, ExchangeOp))


class TestRouteVia:
    def test_same_node_is_direct(self):
        assert route_via(0, 3, 4) == 3
        assert route_via(5, 7, 4) == 7

    def test_cross_node_is_rail_aligned(self):
        # src 1 (node 0) -> dst 6 (node 1, rail 2): scratch is GPU 2,
        # node 0's GPU on rail 2.
        assert route_via(1, 6, 4) == 2
        assert route_via(6, 1, 4) == 5

    def test_scratch_stays_in_source_node(self):
        for src in range(8):
            for dst in range(8):
                via = route_via(src, dst, 4)
                assert via // 4 == src // 4
                if src // 4 != dst // 4:
                    assert via % 4 == dst % 4


class TestSplitExchange:
    def test_bytes_conserved_per_destination(self):
        op = flat_exchange()
        stage, rail = split_exchange(op, 8, 4)
        # Every flat message crosses the stage collective exactly once
        # (delivered directly or forwarded to its scratch GPU), except
        # those whose source already sits on the destination's rail —
        # staying put is free.
        self_staged = sum(t.nbytes for t in op.transfers
                          if route_via(t.src, t.dst, 4) == t.src)
        assert stage.total_bytes() == op.total_bytes() - self_staged
        # ... and exactly the flat op's inter-node bytes ride the rail,
        # landing on the right final destination.
        for dst in range(8):
            inter = sum(t.nbytes for t in op.transfers
                        if t.dst == dst and t.src // 4 != dst // 4)
            railed = sum(t.nbytes for t in rail.transfers
                         if t.dst == dst)
            assert railed == inter
        assert rail.total_bytes() == sum(
            t.nbytes for t in op.transfers if t.src // 4 != t.dst // 4)

    def test_stage_is_intra_node_only(self):
        stage, _ = split_exchange(flat_exchange(), 8, 4)
        assert stage.level == "multi-gpu"
        assert all(t.src // 4 == t.dst // 4 for t in stage.transfers)

    def test_rail_is_inter_node_and_rail_aligned(self):
        _, rail = split_exchange(flat_exchange(), 8, 4)
        assert rail.level == "multi-node"
        assert rail.transfers
        for t in rail.transfers:
            assert t.src // 4 != t.dst // 4
            assert t.src % 4 == t.dst % 4

    def test_tags_chain_through_staged_intermediate(self):
        op = flat_exchange()
        stage, rail = split_exchange(op, 8, 4)
        assert stage.consumes == op.consumes
        assert stage.produces == rail.consumes
        assert rail.produces == op.produces


class TestSynthesizeHierarchical:
    def test_product_is_verifier_clean_on_the_cluster(self):
        n = 1 << 12
        schedule = build_unintt_schedule(n, 32, EB)
        hier, _ = synthesize_hierarchical(schedule, 8)
        assert verify_schedule(hier, machine=FOUR_NODE_DGX_A100) == []

    def test_delta_is_the_actual_difference(self):
        schedule = build_unintt_schedule(1 << 12, 8, EB)
        hier, delta = synthesize_hierarchical(schedule, 4)
        base_bytes = schedule.bytes_by_level()
        for level, nbytes in delta.bytes_by_level:
            assert hier.bytes_by_level().get(level, 0) \
                == base_bytes.get(level, 0) + nbytes
        assert delta.field_muls == 0
        assert hier.total_field_muls() == schedule.total_field_muls()

    def test_gate_accepts_product_with_delta(self):
        schedule = build_unintt_schedule(1 << 12, 32, EB)
        hier, delta = synthesize_hierarchical(schedule, 8)
        assert verify_rewrite(schedule, hier,
                              machine=FOUR_NODE_DGX_A100,
                              field=GOLDILOCKS, delta=delta) == []

    def test_gate_rejects_product_without_delta(self):
        schedule = build_unintt_schedule(1 << 12, 8, EB)
        hier, _ = synthesize_hierarchical(schedule, 4)
        findings = verify_rewrite(schedule, hier)
        assert any(f.check == "plan.rewrite-differs" for f in findings)

    def test_check_cost_validates_declared_delta(self):
        from repro.hw.cost import field_limbs

        n = 1 << 20
        eb = field_limbs(BLS12_381_FR) * 8
        schedule = build_unintt_schedule(n, 32, eb)
        hier, delta = synthesize_hierarchical(schedule, 8)
        # Priced on the cluster, whose levels the staged ops ride.
        assert check_cost(FOUR_NODE_DGX_A100, BLS12_381_FR, n,
                          schedule=hier, delta=delta) == []
        # Undeclared, the same schedule is a cost mismatch.
        assert any(f.check == "plan.cost-mismatch"
                   for f in check_cost(FOUR_NODE_DGX_A100, BLS12_381_FR, n,
                                       schedule=hier))

    @pytest.mark.parametrize("node_size", (0, 1, 8, 16, 3))
    def test_bad_node_size_rejected(self, node_size):
        schedule = build_unintt_schedule(1 << 10, 8, EB)
        with pytest.raises(SchedulePassError):
            synthesize_hierarchical(schedule, node_size)


class TestEnumerateCandidates:
    def test_plain_machine_offers_flat_and_rewritten(self):
        machine = machine_by_name("DGX-A100")
        candidates = enumerate_candidates(machine, GOLDILOCKS, 1 << 12)
        assert len(candidates) == 2
        assert not candidates[0].synthesized
        assert candidates[1].synthesized
        assert all(c.machine is machine for c in candidates)

    def test_cluster_adds_the_hierarchical_candidate(self):
        candidates = enumerate_candidates(FOUR_NODE_DGX_A100,
                                          BLS12_381_FR, 1 << 20)
        assert len(candidates) == 3
        hier = candidates[-1]
        assert "@hier[ns=8]" in hier.name
        assert hier.delta is not None
        assert hier.machine is FOUR_NODE_DGX_A100
        # Flat candidates price on the flattened (all-GPUs-behind-the-
        # network) view, never the cluster itself.
        for cand in candidates[:2]:
            assert cand.machine.gpu_count == FOUR_NODE_DGX_A100.total_gpus

    def test_every_candidate_passes_the_gate_independently(self):
        for cand in enumerate_candidates(FOUR_NODE_DGX_A100,
                                         BLS12_381_FR, 1 << 20):
            assert verify_rewrite(cand.base, cand.schedule,
                                  machine=cand.machine,
                                  field=BLS12_381_FR,
                                  delta=cand.delta) == []

    def test_single_node_machine_never_synthesizes_hierarchy(self):
        candidates = enumerate_candidates(DGX_A100, GOLDILOCKS, 1 << 12)
        assert all("@hier[" not in c.name for c in candidates)
