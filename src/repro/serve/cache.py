"""Memoizing caches behind the proof-serving scheduler.

Two caches decide how much per-dispatch overhead a served request pays:

* :class:`PlanCache` — keyed by ``machine x field x size x direction
  x engine`` (engine = the batch strategy's underlying engine: UniNTT
  for ``split``, the local radix-2 kernel for ``replicate``; an
  inverse batch is priced with its ``1/n`` pass), it memoizes
  the autotuned tile and the closed-form per-vector/per-slot seconds a
  dispatch needs to choose a strategy and price itself.  A miss runs
  the tuner (:func:`repro.multigpu.autotune.autotune_tile` plus one
  cost-model evaluation per strategy) and is priced at
  :data:`PLAN_MISS_MESSAGES` fabric latency units — the FFTW-style
  planning overhead that cross-request reuse amortizes away.
* :class:`TwiddleLedger` — a bounded :class:`~repro.ntt.twiddle.
  TwiddleCache` plus pricing: the first dispatch touching a
  ``(field, size, direction)`` pays one modular multiplication per
  generated table entry; later dispatches hit and are charged **zero
  recompute** (the satellite invariant the serving tests pin).

Both report hits/misses/evictions so the :class:`~repro.serve.report.
ServeReport` can show exactly what caching bought.  The *values* behind
both (plan entries, twiddle tables) are memoized once per process, so a
fresh fleet does not re-plan or regenerate them; every cache still
counts and prices its own misses as if it had.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.errors import ServeError
from repro.field.prime_field import PrimeField
from repro.hw.cost import Phase
from repro.hw.model import MachineModel
from repro.multigpu.autotune import autotune_tile
from repro.multigpu.batch_engine import BatchedDistributedNTT
from repro.serve.request import DIRECTIONS
from repro.ntt.twiddle import TwiddleCache
from repro.sim.cluster import SimCluster

__all__ = ["STRATEGIES", "PLAN_MISS_MESSAGES", "PlanEntry", "PlanCache",
           "TwiddleLedger"]

#: Batch strategies the scheduler chooses between (see
#: :class:`repro.multigpu.batch_engine.BatchedDistributedNTT`).
STRATEGIES = ("replicate", "split")

#: Fabric latency units one plan-cache miss costs: the tuner walks the
#: tile candidates and prices each strategy on the host before any
#: kernel launches, a serialization point real serving systems hide
#: exactly the way this cache does — by keying and reusing the result.
PLAN_MISS_MESSAGES = 16


@dataclass(frozen=True)
class PlanEntry:
    """One memoized (machine, field, size, direction, engine) plan.

    ``unit_seconds`` is the closed-form building block of the batch
    cost: for ``replicate`` the seconds of one GPU-local transform (a
    batch of B vectors on G GPUs costs ``ceil(B/G)`` units); for
    ``split`` the seconds of one full distributed transform (a batch
    costs ``B`` units).  ``available`` is False when the engine cannot
    run the size at all (UniNTT needs ``n >= G**2``).
    """

    machine_name: str
    field_name: str
    log_size: int
    direction: str
    strategy: str
    tile: int
    gpu_count: int
    unit_seconds: float
    available: bool = True

    def batch_seconds(self, vectors: int) -> float:
        """Modeled seconds to transform ``vectors`` lanes as one batch."""
        if not self.available:
            raise ServeError(
                f"{self.strategy} cannot run 2^{self.log_size} on "
                f"{self.machine_name}")
        if vectors < 1:
            raise ServeError(f"batch needs >= 1 vector, got {vectors}")
        if self.strategy == "replicate":
            return -(-vectors // self.gpu_count) * self.unit_seconds
        return vectors * self.unit_seconds


class PlanCache:
    """Keyed memoization of planning results, with service counters."""

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str, int, str, str],
                            PlanEntry] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> tuple[tuple[str, str, int, str, str], ...]:
        """Resident plan keys ``(machine, field, log_size, direction,
        strategy)``, sorted (for server snapshots)."""
        return tuple(sorted(self._entries))

    def lookup(self, machine: MachineModel, field: PrimeField,
               log_size: int, strategy: str,
               direction: str = "forward") -> tuple[PlanEntry, bool]:
        """Return ``(entry, hit)`` for one strategy on one shape."""
        if strategy not in STRATEGIES:
            raise ServeError(
                f"unknown strategy {strategy!r}; known: {STRATEGIES}")
        if direction not in DIRECTIONS:
            raise ServeError(
                f"unknown direction {direction!r}; known: {DIRECTIONS}")
        key = (machine.name, field.name, log_size, direction, strategy)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            return entry, True
        self.misses += 1
        entry = _memo_plan(machine, field, field.name, log_size, direction,
                           strategy)
        self._entries[key] = entry
        return entry, False

    def choose(self, machine: MachineModel, field: PrimeField,
               log_size: int, vectors: int, force: str | None = None,
               direction: str = "forward") -> tuple[PlanEntry, int]:
        """Pick the cheaper strategy for a batch; returns (entry, misses).

        ``force`` pins the strategy (used by tests and by callers that
        already know the answer); both strategies are still planned so
        the decision is reproducible either way.
        """
        misses = 0
        candidates: list[PlanEntry] = []
        for strategy in STRATEGIES:
            entry, hit = self.lookup(machine, field, log_size, strategy,
                                     direction)
            misses += 0 if hit else 1
            if entry.available:
                candidates.append(entry)
        if force is not None:
            chosen = [e for e in candidates if e.strategy == force]
            if not chosen:
                raise ServeError(
                    f"forced strategy {force!r} cannot run "
                    f"2^{log_size} on {machine.name}")
            return chosen[0], misses
        if not candidates:
            raise ServeError(
                f"no strategy can run 2^{log_size} on {machine.name}")
        chosen_entry = min(
            candidates, key=lambda e: (e.batch_seconds(vectors),
                                       e.strategy))
        return chosen_entry, misses

@functools.lru_cache(maxsize=64)
def _memo_plan(machine: MachineModel, field: PrimeField, field_name: str,
               log_size: int, direction: str, strategy: str) -> PlanEntry:
    """Plan one shape once per process; the entry is frozen, so every
    :class:`PlanCache` shares it while counting its own miss."""
    # ``field_name`` keys what field equality (by modulus) leaves out.
    n = 1 << log_size
    g = machine.gpu_count
    tile = _memo_tile(machine, field, field_name, n)
    if strategy == "split" and n < g * g:  # UniNTT needs n >= G^2
        return PlanEntry(machine.name, field_name, log_size, direction,
                         strategy, tile, g, float("inf"),
                         available=False)
    engine = BatchedDistributedNTT(SimCluster(field, g), strategy,
                                   tile=tile)
    unit = engine.estimate(machine, n, 1,
                           inverse=direction == "inverse").total_s
    return PlanEntry(machine.name, field_name, log_size, direction,
                     strategy, tile, g, unit)


@functools.lru_cache(maxsize=32)
def _memo_tile(machine: MachineModel, field: PrimeField, field_name: str,
               n: int) -> int:
    """The autotuned tile of one (machine, field, size), once per process.

    It depends on neither the direction nor the strategy, so the four
    plans of a shape share one tuner run.
    """
    return autotune_tile(machine, field, n)[0]


class TwiddleLedger:
    """Priced twiddle residency for the serving layer.

    The ledger mirrors what a real deployment keeps in device memory:
    the root-power tables each dispatched shape needs.  ``prepare``
    touches the tables one batch will use and returns the *recompute
    phase* that dispatch owes — ``None`` on a full hit, a
    ``field_muls`` phase equal to the generated entries on a miss.
    """

    def __init__(self, max_tables: int | None = None) -> None:
        self.cache = TwiddleCache(max_tables=max_tables)
        self._shapes: dict[tuple[str, int, str], None] = {}

    def shapes(self) -> tuple[tuple[str, int, str], ...]:
        """Shapes ever prepared, sorted (for server snapshots).

        Under an LRU bound some listed tables may have been evicted;
        re-preparing the list at restore time replays the same
        insertions, so residency after recovery matches.
        """
        return tuple(sorted(self._shapes))

    def prepare(self, field: PrimeField, n: int,
                direction: str) -> tuple[Phase | None, bool]:
        """Touch the tables for one shape; return (phase, hit)."""
        self._shapes.setdefault((field.name, n, direction), None)
        generated_before = self.cache.generated_entries
        misses_before = self.cache.misses
        if direction == "inverse":
            self.cache.inverse(field, n)
        else:
            self.cache.forward(field, n)
        self.cache.bitrev(n)
        generated = self.cache.generated_entries - generated_before
        hit = self.cache.misses == misses_before
        if generated == 0:
            return None, hit
        return Phase(name="serve-twiddle-gen", field_muls=generated), hit

    def stats(self) -> dict[str, int]:
        return self.cache.stats()
