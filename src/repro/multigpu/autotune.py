"""Configuration autotuning (the FFTW-style planning layer).

A production transform library does not ask users to pick tile sizes,
decomposition shapes, or engines — it prices the candidates against the
machine model and picks.  Every candidate is priced from the program it
would run (an engine's ``estimate``, or a schedule's own steps).  Three
tuners:

* :func:`autotune_tile` — choose the fast-memory tile for local
  transform passes: bigger tiles mean fewer global-memory round trips
  but must fit the shared-memory capacity;
* :func:`select_engine` — pick the fastest engine (and batch strategy)
  for a workload, returning the ranked table so callers can see the
  margins.  On a :class:`~repro.hw.multinode.MultiNodeMachine` the
  candidate pool also includes every verified schedule the synthesis
  layer offers (flat, pass-rewritten, hierarchical), ranked by the
  same cost model;
* :func:`select_schedule` — rank only the schedule candidates
  (:func:`repro.analysis.synth.enumerate_candidates`), carrying the
  priced :class:`~repro.hw.plancost.PlanCost` for each so callers can
  compare level-by-level, not just by total seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import HardwareModelError
from repro.field.prime_field import PrimeField
from repro.hw.cost import field_limbs
from repro.hw.model import MachineModel
from repro.multigpu.baseline import BaselineFourStepEngine
from repro.multigpu.pairwise import PairwiseExchangeEngine
from repro.multigpu.singlegpu import SingleGpuEngine
from repro.multigpu.unintt import UniNTTEngine
from repro.sim.cluster import SimCluster

__all__ = ["autotune_tile", "select_engine", "EngineChoice",
           "select_schedule", "ScheduleChoice"]


def autotune_tile(machine: MachineModel, field: PrimeField, n: int,
                  gpu_count: int | None = None) -> tuple[int, float]:
    """Choose the local-transform tile minimizing modeled UniNTT time.

    Candidates are powers of two from 64 up to the shared-memory
    capacity (the physical bound on what a thread block can stage).
    Returns (tile, seconds).
    """
    element_bytes = field_limbs(field) * 8
    smem_elems = machine.gpu.smem_per_block_bytes // element_bytes
    if smem_elems < 64:
        raise HardwareModelError(
            f"{machine.gpu.name} shared memory holds fewer than 64 "
            f"elements of {field.name}")
    gpus = gpu_count if gpu_count is not None else machine.gpu_count
    cluster = SimCluster(field, gpus)
    # Small transforms that UniNTT cannot split are priced single-GPU.
    if n >= gpus * gpus:
        def price(tile: int) -> float:
            return UniNTTEngine(cluster, tile=tile).estimate(
                machine, n).total_s
    else:
        def price(tile: int) -> float:
            return SingleGpuEngine(cluster, tile=tile).estimate(
                machine, n).total_s
    best: tuple[int, float] | None = None
    tile = 64
    while tile <= smem_elems:
        seconds = price(tile)
        if best is None or seconds < best[1]:
            best = (tile, seconds)
        tile *= 2
    assert best is not None
    return best


@dataclass(frozen=True)
class EngineChoice:
    """One ranked engine configuration."""

    name: str
    seconds: float
    bottleneck: str


@dataclass(frozen=True)
class ScheduleChoice:
    """One ranked, verified schedule candidate.

    ``seconds`` is the overlap-aware modeled wall-clock
    (:func:`repro.hw.plancost.schedule_seconds`); ``cost`` the
    sequential :class:`~repro.hw.plancost.PlanCost` for level-by-level
    comparison; ``synthesized`` whether the pass framework/synthesis
    produced it (vs the hand-written base schedule).
    """

    name: str
    seconds: float
    cost: object
    synthesized: bool
    schedule: object


def select_schedule(machine, field: PrimeField, n: int,
                    ) -> list[ScheduleChoice]:
    """Rank every verified schedule candidate, fastest first.

    Accepts a single-node :class:`~repro.hw.model.MachineModel` (flat
    and pass-rewritten candidates) or a
    :class:`~repro.hw.multinode.MultiNodeMachine` (plus the
    hierarchical synthesis).  Every candidate has already passed the
    verification gate; a gate failure raises
    :class:`~repro.errors.SchedulePassError` instead of ranking.
    """
    from repro.analysis.synth import enumerate_candidates
    from repro.hw.plancost import price_schedule, schedule_seconds

    choices = []
    for cand in enumerate_candidates(machine, field, n):
        cost = price_schedule(cand.machine, field, cand.schedule)
        seconds = schedule_seconds(cand.machine, field, cand.schedule)
        choices.append(ScheduleChoice(
            name=cand.name, seconds=seconds, cost=cost,
            synthesized=cand.synthesized, schedule=cand.schedule))
    return sorted(choices, key=lambda c: (c.seconds, c.name))


def select_engine(machine, field: PrimeField, n: int,
                  ) -> list[EngineChoice]:
    """Rank all engines for one transform, fastest first.

    On a :class:`~repro.hw.multinode.MultiNodeMachine`, the flat
    engines are priced against its
    :meth:`~repro.hw.multinode.MultiNodeMachine.flattened` form (all
    GPUs behind the network) and the verified schedule candidates join
    the ranking as ``sched:``-prefixed entries.
    """
    if hasattr(machine, "node_count"):
        return _select_engine_cluster(machine, field, n)
    cluster = SimCluster(field, machine.gpu_count)
    tile, _ = autotune_tile(machine, field, n)
    candidates = [
        SingleGpuEngine(cluster, tile=tile),
        BaselineFourStepEngine(cluster, tile=tile),
        PairwiseExchangeEngine(cluster, tile=tile),
        UniNTTEngine(cluster, tile=tile),
    ]
    choices = []
    for engine in candidates:
        try:
            breakdown = engine.estimate(machine, n)
        except Exception:
            continue  # engine constraints (e.g. n < G^2) exclude it
        choices.append(EngineChoice(name=engine.name,
                                    seconds=breakdown.total_s,
                                    bottleneck=breakdown.
                                    dominant_resource()))
    if not choices:
        raise HardwareModelError(
            f"no engine can run n={n} on {machine.name}")
    return sorted(choices, key=lambda c: c.seconds)


def _select_engine_cluster(machine, field: PrimeField,
                           n: int) -> list[EngineChoice]:
    """Cluster ranking: flat engines plus verified schedule candidates."""
    choices = list(select_engine(machine.flattened(), field, n))
    for sched in select_schedule(machine, field, n):
        bottleneck = ("exchange" if sched.cost.exchange_s
                      > sched.cost.compute_s else "compute")
        choices.append(EngineChoice(name=f"sched:{sched.name}",
                                    seconds=sched.seconds,
                                    bottleneck=bottleneck))
    return sorted(choices, key=lambda c: c.seconds)
