"""Tests for decomposition plan construction."""

import pytest

from repro.errors import PlanError
from repro.ntt import Plan, balanced_plan, hierarchical_plan, leaf, split


class TestNodeValidation:
    def test_leaf(self):
        node = leaf(8)
        assert node.is_leaf
        assert node.size == 8
        assert node.radix == (8, 1)
        assert node.depth() == 0

    def test_split(self):
        node = split(leaf(4), leaf(8))
        assert not node.is_leaf
        assert node.size == 32
        assert node.radix == (4, 8)
        assert node.depth() == 1

    def test_non_power_size_rejected(self):
        with pytest.raises(PlanError, match="power of two"):
            leaf(12)

    def test_half_split_rejected(self):
        with pytest.raises(PlanError, match="both an outer and an inner"):
            Plan(size=8, outer=leaf(2), inner=None)

    def test_mismatched_factors_rejected(self):
        with pytest.raises(PlanError, match="does not factor"):
            Plan(size=16, outer=leaf(2), inner=leaf(4))

    def test_unit_factor_rejected(self):
        with pytest.raises(PlanError, match="at least 2"):
            Plan(size=8, outer=leaf(1), inner=leaf(8))


class TestTraversal:
    def test_walk_preorder(self):
        tree = split(split(leaf(2), leaf(2)), leaf(4))
        sizes = [node.size for node in tree.walk()]
        assert sizes == [16, 4, 2, 2, 4]

    def test_describe_renders_tree(self):
        tree = split(leaf(2), leaf(4))
        text = tree.describe()
        assert "split[8 = 2 x 4]" in text
        assert "leaf[2]" in text
        assert "leaf[4]" in text


class TestBalancedPlan:
    def test_small_is_leaf(self):
        assert balanced_plan(16, leaf_size=16).is_leaf

    def test_splits_until_leaf_size(self):
        plan = balanced_plan(1 << 12, leaf_size=1 << 4)
        for node in plan.walk():
            if node.is_leaf:
                assert node.size <= 1 << 4

    def test_size_preserved(self):
        plan = balanced_plan(1 << 10, leaf_size=8)
        assert plan.size == 1 << 10

    def test_leaf_size_validation(self):
        with pytest.raises(PlanError, match="leaf_size"):
            balanced_plan(16, leaf_size=1)

    def test_size_validation(self):
        with pytest.raises(PlanError, match="power of two"):
            balanced_plan(24)


class TestHierarchicalPlan:
    def test_levels_in_order(self):
        plan = hierarchical_plan(1 << 12, [8, 16, 4], leaf_size=4)
        radixes = []
        while not plan.is_leaf:
            radixes.append(plan.radix[0])
            plan = plan.inner
        assert radixes[:3] == [8, 16, 4]

    def test_outer_split_sizes_match_fanouts(self):
        plan = hierarchical_plan(1 << 12, [8, 16], leaf_size=16)
        assert plan.radix[0] == 8
        assert plan.inner is not None
        assert plan.inner.radix[0] == 16

    def test_small_transform_skips_outer_levels(self):
        # 2^4 transform cannot use an 8-way multi-GPU and a 16-way GPU split.
        plan = hierarchical_plan(16, [8, 16], leaf_size=4)
        assert plan.size == 16
        assert plan.radix == (8, 2)

    def test_exact_consumption(self):
        """Fanouts that exactly consume the size still produce a plan."""
        plan = hierarchical_plan(64, [8, 8], leaf_size=2)
        assert plan.size == 64

    def test_non_power_fanout_rejected(self):
        with pytest.raises(PlanError, match="fanout"):
            hierarchical_plan(64, [3])

    def test_trivial_size(self):
        assert hierarchical_plan(1, [8]).is_leaf
        assert hierarchical_plan(2, [8]).size == 2


class TestMachineShape:
    """The standard GPU-node hierarchy: GPUs, SMs, warps, lanes."""

    def test_standard_shape(self):
        plan = hierarchical_plan(1 << 20, [8, 64, 8, 32])
        assert plan.radix[0] == 8
        assert plan.size == 1 << 20

    def test_executes_correctly(self, rng):
        from repro.field import TEST_FIELD_7681 as F
        from repro.ntt import ntt, plan_ntt

        plan = hierarchical_plan(512, [4, 4, 2, 2], leaf_size=4)
        x = F.random_vector(512, rng)
        assert plan_ntt(F, plan, x) == ntt(F, x)
