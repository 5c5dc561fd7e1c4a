"""Serving reports: latency, batching, and cache accounting.

A :class:`ServeReport` is the serving run's complete account — every
dispatch's phase profile (so the run folds back into the analytic cost
model of :mod:`repro.hw.cost`), per-request latencies with
deterministic percentiles, cache hit/miss/eviction counts, and the
admission/batching/retry tallies.  Its :meth:`ServeReport.plan_cost`
prices the whole run as a validating
:class:`~repro.hw.plancost.PlanCost`, the same currency every other
subsystem reports in.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dataclass_field

from repro.errors import ServeError
from repro.field.presets import field_by_name
from repro.hw.cost import CostBreakdown, CostModel, Step
from repro.hw.model import MachineModel
from repro.hw.plancost import PlanCost
from repro.serve.request import RequestResult

__all__ = ["DispatchRecord", "ServeReport", "latency_percentiles",
           "percentile", "tenant_breakdown"]


def percentile(sorted_values: list[float], q: float) -> float:
    """Deterministic nearest-rank percentile (no interpolation).

    ``q`` in [0, 1]; the values must already be sorted ascending.
    """
    if not sorted_values:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ServeError(f"percentile q must be in [0, 1], got {q}")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def latency_percentiles(results: list[RequestResult]) -> dict[str, float]:
    """Max, p50, p90 and p99 latency of completed requests."""
    lats = sorted(r.latency_s for r in results)
    return {
        "max": lats[-1] if lats else 0.0,
        "p50": percentile(lats, 0.50),
        "p90": percentile(lats, 0.90),
        "p99": percentile(lats, 0.99),
    }


def tenant_breakdown(results: list[RequestResult], rejected: dict[str, int],
                     shed: dict[str, int]) -> dict[str, dict[str, object]]:
    """Per-tenant completion/latency/shed accounting (sorted keys).

    Tenants appear if they completed, were rejected, or were shed;
    ``rejected`` and ``shed`` map tenant ids to request counts.
    """
    by_tenant: dict[str, list[RequestResult]] = {}
    for result in results:
        by_tenant.setdefault(result.request.tenant_id, []).append(result)
    breakdown: dict[str, dict[str, object]] = {}
    for tenant in sorted(set(by_tenant) | set(rejected) | set(shed)):
        done = by_tenant.get(tenant, [])
        lats = sorted(r.latency_s for r in done)
        breakdown[tenant] = {
            "completed": len(done),
            "deadline_misses": sum(1 for r in done if not r.deadline_met),
            "p50_latency_s": percentile(lats, 0.50),
            "p99_latency_s": percentile(lats, 0.99),
            "rejected": rejected.get(tenant, 0),
            "shed": shed.get(tenant, 0),
            "vectors": sum(r.request.batch for r in done),
        }
    return breakdown


@dataclass(frozen=True)
class DispatchRecord:
    """One dispatched batch: what ran, for how long, at what price."""

    batch_id: int
    field_name: str
    log_size: int
    direction: str
    strategy: str
    requests: int
    vectors: int
    duration_s: float
    attempts: int
    steps: tuple[Step, ...]
    #: ``"multi-gpu"`` for the primary engine, ``"single-gpu"`` when
    #: the degradation controller diverted the batch to the fallback.
    engine: str = "multi-gpu"


@dataclass
class ServeReport:
    """Accumulated statistics of one serving run."""

    machine_name: str
    offered: int = 0
    accepted: int = 0
    rejected: int = 0
    completed: int = 0
    deadline_misses: int = 0
    retries: int = 0
    abft_probes: int = 0
    abft_detections: int = 0
    abft_reexecutions: int = 0
    quarantines: int = 0
    quarantine_rejoins: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    twiddle_hits: int = 0
    twiddle_misses: int = 0
    twiddle_evictions: int = 0
    shed: int = 0
    breaker_trips: int = 0
    breaker_probes: int = 0
    fallback_dispatches: int = 0
    journal_records: int = 0
    snapshots: int = 0
    recoveries: int = 0
    recovered_requests: int = 0
    replayed_records: int = 0
    rejection_s: float = 0.0
    shed_s: float = 0.0
    journal_s: float = 0.0
    recovery_s: float = 0.0
    makespan_s: float = 0.0
    dispatches: list[DispatchRecord] = dataclass_field(default_factory=list)
    results: list[RequestResult] = dataclass_field(default_factory=list)
    rejected_by_tenant: dict[str, int] = dataclass_field(
        default_factory=dict)
    shed_by_tenant: dict[str, int] = dataclass_field(default_factory=dict)

    # -- batching ------------------------------------------------------------

    @property
    def batches(self) -> int:
        return len(self.dispatches)

    def strategy_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in self.dispatches:
            counts[record.strategy] = counts.get(record.strategy, 0) + 1
        return dict(sorted(counts.items()))

    def mean_batch_requests(self) -> float:
        if not self.dispatches:
            return 0.0
        return sum(r.requests for r in self.dispatches) / len(self.dispatches)

    # -- latency -------------------------------------------------------------

    def latencies_s(self) -> list[float]:
        """Completed requests' latencies, ascending."""
        return sorted(r.latency_s for r in self.results)

    def latency_percentiles_s(self) -> dict[str, float]:
        return latency_percentiles(self.results)

    def throughput_rps(self) -> float:
        """Completed requests per virtual second of makespan."""
        if self.makespan_s <= 0:
            return 0.0
        return self.completed / self.makespan_s

    # -- per-tenant accounting -----------------------------------------------

    def note_rejected(self, tenant_id: str) -> None:
        self.rejected_by_tenant[tenant_id] = \
            self.rejected_by_tenant.get(tenant_id, 0) + 1

    def note_shed(self, tenant_id: str) -> None:
        self.shed_by_tenant[tenant_id] = \
            self.shed_by_tenant.get(tenant_id, 0) + 1

    def tenant_breakdown(self) -> dict[str, dict[str, object]]:
        """Per-tenant accounting of this run (see :func:`tenant_breakdown`)."""
        return tenant_breakdown(self.results, self.rejected_by_tenant,
                                self.shed_by_tenant)

    # -- cost-model folding --------------------------------------------------

    def breakdown_by_field(
            self, machine: MachineModel) -> dict[str, CostBreakdown]:
        """Price every dispatch's phases, grouped by field.

        The cost model binds a field (limb count sets the multiply
        rate), so a mixed-field run is priced per field and merged by
        :meth:`plan_cost`.
        """
        steps_by_field: dict[str, list[Step]] = {}
        for record in self.dispatches:
            steps_by_field.setdefault(record.field_name, []).extend(
                record.steps)
        return {
            name: CostModel(machine, field_by_name(name)).estimate(steps)
            for name, steps in sorted(steps_by_field.items())
        }

    def plan_cost(self, machine: MachineModel) -> PlanCost:
        """The run's total modeled cost as a validating PlanCost."""
        total = compute = exchange = 0.0
        bytes_by_level: dict[str, int] = {}
        seconds_by_level: dict[str, float] = {}
        for breakdown in self.breakdown_by_field(machine).values():
            total += breakdown.total_s
            exchange += breakdown.exchange_s
            for level, nbytes in breakdown.exchange_bytes_by_level.items():
                bytes_by_level[level] = bytes_by_level.get(level, 0) + nbytes
        # Refused and shed requests still cost front-door latency, the
        # journal and its snapshots cost group-commit writes, and
        # recovery costs the snapshot restore plus the tail replay.
        # All of that work is pure fabric messaging, so it lands on the
        # exchange side.
        overhead = (self.rejection_s + self.shed_s + self.journal_s
                    + self.recovery_s)
        total += overhead
        exchange += overhead
        if exchange:
            # The cost model does not split exchange seconds by level in
            # its breakdown; attribute them to the multi-GPU fabric (the
            # only level serve dispatches exchange on).
            seconds_by_level["multi-gpu"] = exchange
        compute = total - exchange
        return PlanCost(total_s=total, compute_s=compute,
                        exchange_s_by_level=seconds_by_level,
                        exchange_bytes_by_level=dict(
                            sorted(bytes_by_level.items())))

    def modeled_busy_s(self) -> float:
        """Total modeled service time across all dispatches."""
        return sum(r.duration_s for r in self.dispatches)

    # -- serialization -------------------------------------------------------

    def summary(self) -> dict[str, object]:
        """Sorted-key scalar summary for reports and tests."""
        return {
            "abft_detections": self.abft_detections,
            "abft_probes": self.abft_probes,
            "abft_reexecutions": self.abft_reexecutions,
            "accepted": self.accepted,
            "batches": self.batches,
            "breaker_probes": self.breaker_probes,
            "breaker_trips": self.breaker_trips,
            "completed": self.completed,
            "deadline_misses": self.deadline_misses,
            "fallback_dispatches": self.fallback_dispatches,
            "journal_records": self.journal_records,
            "journal_s": self.journal_s,
            "makespan_s": self.makespan_s,
            "mean_batch_requests": self.mean_batch_requests(),
            "offered": self.offered,
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "quarantine_rejoins": self.quarantine_rejoins,
            "quarantines": self.quarantines,
            "recovered_requests": self.recovered_requests,
            "recoveries": self.recoveries,
            "recovery_s": self.recovery_s,
            "rejected": self.rejected,
            "rejection_s": self.rejection_s,
            "replayed_records": self.replayed_records,
            "retries": self.retries,
            "shed": self.shed,
            "shed_s": self.shed_s,
            "snapshots": self.snapshots,
            "strategy_counts": self.strategy_counts(),
            "throughput_rps": self.throughput_rps(),
            "twiddle_evictions": self.twiddle_evictions,
            "twiddle_hits": self.twiddle_hits,
            "twiddle_misses": self.twiddle_misses,
        }

    def to_json(self) -> str:
        payload = dict(self.summary())
        payload["latency_percentiles_s"] = self.latency_percentiles_s()
        payload["machine"] = self.machine_name
        payload["modeled_busy_s"] = self.modeled_busy_s()
        payload["tenants"] = self.tenant_breakdown()
        return json.dumps(payload, indent=2, sort_keys=True)
