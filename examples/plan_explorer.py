"""Decomposition-plan explorer.

Shows the UniNTT recursion: how one transform decomposes across the
warp / block / GPU / multi-GPU hierarchy, that every plan computes the
identical spectrum, and where the time goes when the cost model prices
each engine's program phase by phase.

Run:  python examples/plan_explorer.py
"""

import random

from repro.bench import format_table
from repro.field import GOLDILOCKS
from repro.hw import CostModel, DGX_A100
from repro.multigpu import BaselineFourStepEngine, UniNTTEngine
from repro.ntt import balanced_plan, dft, hierarchical_plan, plan_ntt
from repro.sim import SimCluster


def show_plans() -> None:
    """Print plan trees for one transform at several hierarchy shapes."""
    n = 1 << 12
    print(f"decomposition plans for a 2^12-point NTT\n")

    flat = balanced_plan(n, leaf_size=64)
    print("balanced out-of-core plan (leaf = 64):")
    print(flat.describe())
    print()

    shaped = hierarchical_plan(n, [8, 4, 2, 4], leaf_size=8)
    print("machine-shaped plan (8 GPUs x 4 SMs x 2 warps x 4 lanes):")
    print(shaped.describe())
    print()


def verify_equivalence() -> None:
    """Every plan computes the same spectrum as the reference DFT."""
    field = GOLDILOCKS
    n = 256
    rng = random.Random(5)
    values = field.random_vector(n, rng)
    reference = dft(field, values)

    plans = {
        "leaf-only": balanced_plan(n, leaf_size=n),
        "balanced-16": balanced_plan(n, leaf_size=16),
        "hierarchy-4x4x4": hierarchical_plan(n, [4, 4, 4], leaf_size=4),
    }
    for name, plan in plans.items():
        result = plan_ntt(field, plan, values)
        status = "OK" if result == reference else "MISMATCH"
        print(f"  {name:18s} depth={plan.depth()}  {status}")
    print()


def level_attribution() -> None:
    """Where does the time go?  Per-phase cost on a DGX-A100."""
    field = GOLDILOCKS
    n = 1 << 24
    machine = DGX_A100
    cluster = SimCluster(field, machine.gpu_count)
    model = CostModel(machine, field)

    headers = ["engine", "phase", "ms"]
    rows = []
    for engine in (BaselineFourStepEngine(cluster), UniNTTEngine(cluster)):
        breakdown = model.estimate(engine.forward_profile(n))
        for phase, seconds in breakdown.per_phase.items():
            rows.append([engine.name, phase, seconds * 1e3])
        rows.append([engine.name, "TOTAL", breakdown.total_s * 1e3])
    print(format_table(headers, rows,
                       title=f"per-phase cost, 2^24 {field.name} NTT on "
                             f"{machine.name}"))


def main() -> None:
    show_plans()
    verify_equivalence()
    level_attribution()


if __name__ == "__main__":
    main()
