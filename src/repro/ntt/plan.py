"""Decomposition plans: the UniNTT recursive NTT structure.

The paper's core idea is a *recursive, overhead-free decomposition*: an
N-point NTT is split as ``N = R * C`` into C-point **local** transforms
on contiguous sub-sequences plus R-point **cross-unit** transforms whose
butterflies ride the communication fabric of one hierarchy level — and
each of those transforms may itself be split the same way.  Every level
of the hierarchy (warp, thread block, GPU, multi-GPU) therefore executes
*the same NTT computation at a different scale*.

A :class:`Plan` is the static description of that recursion: a binary
tree whose internal nodes record the (outer=R cross, inner=C local)
split.  :mod:`repro.ntt.recursive` executes any plan in one address
space, the functional ground truth the distributed UniNTT program
(:func:`repro.multigpu.schedule.build_unintt_schedule`, which also
prices the transform) is checked against.

The twiddle scaling between the two halves of a split is attached to the
split itself (not a standalone pass): executors fuse it into the first
butterfly stage of the cross transform, which is what makes the
decomposition overhead-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import PlanError

__all__ = ["Plan", "leaf", "split", "hierarchical_plan", "balanced_plan"]


@dataclass(frozen=True)
class Plan:
    """A (possibly recursive) NTT decomposition for one transform size.

    Attributes
    ----------
    size:
        Transform size this plan computes; a power of two.
    outer:
        Plan for the R-point cross-unit transform, or ``None`` for a
        leaf (executed directly with a radix-2/4 kernel).
    inner:
        Plan for the C-point local transform, or ``None`` for a leaf.
    """

    size: int
    outer: "Plan | None" = None
    inner: "Plan | None" = None

    def __post_init__(self) -> None:
        if self.size < 1 or self.size & (self.size - 1):
            raise PlanError(f"plan size must be a power of two, got {self.size}")
        if (self.outer is None) != (self.inner is None):
            raise PlanError("a split needs both an outer and an inner plan")
        if self.outer is not None and self.inner is not None:
            if self.outer.size * self.inner.size != self.size:
                raise PlanError(
                    f"split {self.outer.size} x {self.inner.size} does not "
                    f"factor size {self.size}")
            if self.outer.size < 2 or self.inner.size < 2:
                raise PlanError("split factors must both be at least 2")

    # -- structure ---------------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        return self.outer is None

    @property
    def radix(self) -> tuple[int, int]:
        """The (R, C) factor pair of this node; (size, 1) for leaves."""
        if self.is_leaf:
            return (self.size, 1)
        assert self.outer is not None and self.inner is not None
        return (self.outer.size, self.inner.size)

    def depth(self) -> int:
        """Number of split levels below (and including) this node."""
        if self.is_leaf:
            return 0
        assert self.outer is not None and self.inner is not None
        return 1 + max(self.outer.depth(), self.inner.depth())

    def walk(self) -> Iterator["Plan"]:
        """Pre-order traversal of all nodes."""
        yield self
        if not self.is_leaf:
            assert self.outer is not None and self.inner is not None
            yield from self.outer.walk()
            yield from self.inner.walk()

    def describe(self, indent: int = 0) -> str:
        """Human-readable tree rendering for logs and examples."""
        pad = "  " * indent
        if self.is_leaf:
            return f"{pad}leaf[{self.size}]"
        assert self.outer is not None and self.inner is not None
        return "\n".join([
            f"{pad}split[{self.size} = {self.outer.size} x "
            f"{self.inner.size}]",
            self.outer.describe(indent + 1),
            self.inner.describe(indent + 1),
        ])


def leaf(size: int) -> Plan:
    """A leaf plan: transform executed directly by a dense kernel."""
    return Plan(size=size)


def split(outer: Plan, inner: Plan) -> Plan:
    """Combine an R-plan (cross) and a C-plan (local) into an R*C plan."""
    return Plan(size=outer.size * inner.size, outer=outer, inner=inner)


def balanced_plan(size: int, leaf_size: int = 1 << 10) -> Plan:
    """Recursively halve (in log space) until pieces fit ``leaf_size``.

    The generic planner for a single memory space: mimics a blocked
    out-of-core NTT where ``leaf_size`` is the capacity of the faster
    memory.
    """
    if size < 1 or size & (size - 1):
        raise PlanError(f"plan size must be a power of two, got {size}")
    if leaf_size < 2:
        raise PlanError(f"leaf_size must be at least 2, got {leaf_size}")
    if size <= leaf_size:
        return leaf(size)
    log_n = size.bit_length() - 1
    outer_log = log_n // 2
    outer = balanced_plan(1 << outer_log, leaf_size)
    inner = balanced_plan(1 << (log_n - outer_log), leaf_size)
    return split(outer, inner)


def hierarchical_plan(size: int, fanouts: Sequence[int],
                      leaf_size: int = 1 << 10) -> Plan:
    """Build the UniNTT recursion for a hierarchy's fanouts.

    ``fanouts`` lists the unit counts outermost-first, e.g. ``[8, 64,
    32, 32]`` for GPUs, SMs, warps and lanes.  Each level contributes
    one split whose cross transform has exactly that level's fanout —
    the "same computation at a different scale" property.  Whatever
    remains after all levels is handled by a balanced local plan with
    ``leaf_size`` leaves.

    Levels whose fanout exceeds the remaining size are skipped (a small
    transform may not need the outer levels at all).
    """
    if size < 1 or size & (size - 1):
        raise PlanError(f"plan size must be a power of two, got {size}")
    for fanout in fanouts:
        if fanout < 1 or fanout & (fanout - 1):
            raise PlanError(
                f"level fanout must be a power of two, got {fanout}")
    remaining = size
    splits: list[int] = []
    for fanout in fanouts:
        if fanout >= 2 and remaining // fanout >= 2:
            splits.append(fanout)
            remaining //= fanout
    plan = balanced_plan(remaining, leaf_size=leaf_size) \
        if remaining > 1 else leaf(1)
    if remaining == 1:
        # Degenerate: hierarchy fanouts consume the whole transform; fold
        # the innermost level back into the local plan.
        if not splits:
            return leaf(size)
        plan = leaf(splits.pop())
    for fanout in reversed(splits):
        plan = split(leaf(fanout), plan)
    return plan
