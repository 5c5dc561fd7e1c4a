"""Fleet-scale resilient serving: replicated, journaled proof servers.

One :class:`~repro.serve.scheduler.ProofServer` is crash-consistent
but still a single point of failure: while it recovers, goodput is
zero.  :class:`FleetServer` runs N journaled replicas on one shared
discrete-event runtime (:mod:`repro.runtime`) and keeps serving
through replica deaths, network partitions, and flapping heartbeats:

* **Routing** — a :class:`ConsistentHashRouter` places each request by
  its shape key ``(field, log_size, direction)`` so one replica's
  plan/twiddle caches stay hot for a shape, walking the hash ring's
  live successors and breaking ties least-loaded-first among a small
  candidate set.
* **Failure detection** — replicas heartbeat every
  ``heartbeat_interval_s`` of virtual time; the detector's suspicion
  level for a replica is phi-style, ``phi = missed ticks``.  Crossing
  ``suspect_phi`` emits a ``serve-heartbeat`` *suspect* transition;
  every suspicion must later resolve — one to one — into either a
  *recovered* transition (the heartbeats came back) or a
  ``serve-failover`` (they did not), which is exactly what the
  ``trace.unresolved-suspicion`` audit rule checks.
* **Journaled failover** — crossing ``failover_phi`` *fences* the
  replica (it will never emit again; any in-flight batch is
  discarded), replays its write-ahead journal with
  :func:`~repro.serve.durability.replay_journal` — the same replay
  single-server crash recovery runs — and re-admits the orphans onto
  surviving replicas exactly once.  A fenced replica that comes back
  (a healed partition, a returned heartbeat link) rejoins *empty*
  under a fresh journal: its old lease is gone, so it cannot
  double-emit work the fleet already failed over.
* **Work stealing** — an idle replica steals the least-urgent queued
  requests from the most-loaded one; the victim journals a ``steal``
  record (its replay drops the request without marking it handled) and
  the thief journals a fresh ``admit``, so failover of either side
  still settles every request exactly once.
* **QoS** — every replica queue is a
  :class:`~repro.serve.qos.WeightedFairQueue`, so per-tenant weighted
  fairness holds fleet-wide under overload.
* **SDC quarantine** — compute-fault specs
  (:data:`~repro.sim.faults.COMPUTE_KINDS`) in the fleet plan are
  routed by their ``replica=`` field into a private per-replica
  :class:`~repro.sim.faults.FaultInjector`, and every replica then
  verifies each batch before emitting it (ABFT, the server's
  ``abft=True`` path).  The heartbeat tick polls each replica's
  detection count into a fleet-level
  :class:`~repro.serve.degrade.SdcScoreboard`; a replica crossing
  ``quarantine_after`` is *quarantined* — suspected, fenced, and its
  journal failed over exactly like a silent replica, so no in-flight
  work is lost.  Quarantined replicas answer a known-answer probe
  kernel each tick: ``probation_probes`` consecutive clean probes
  rejoin the replica (empty, fresh journal); ``condemn_after``
  consecutive faulty probes retire it for good, which keeps a
  permanently mercurial device from spinning the detector forever.

Fleet faults come from the same :class:`~repro.sim.faults.FaultPlan`
vocabulary as fabric faults — ``replica-crash@tick:replica=R``,
``network-partition@tick:replica=R,count=C``,
``heartbeat-loss@tick:replica=R,count=C`` — keyed to the heartbeat
tick index (compute kinds key on the target replica's local-compute
step counter instead), so a chaos plan is a pure function of the run
and replays bit-identically.

Everything the coordination layer does is priced: routing decisions,
heartbeats, failover replays, and steals each charge fabric messages
through the same memoized cost model the servers use, and
:meth:`FleetReport.plan_cost` folds replica costs plus fleet overhead
into one validating :class:`~repro.hw.plancost.PlanCost`.

Request outputs are pure functions of ``(data_seed, request_id,
lane)``, so *where* a request runs never changes *what* it returns:
a fleet run under chaos emits bit-identical outputs to an unfaulted
single server, which the chaos tests assert output-for-output.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
from dataclasses import dataclass, field as dataclass_field

from repro.errors import ServeError
from repro.field.presets import field_by_name
from repro.hw.cost import CostModel, Phase
from repro.hw.machines import DGX_A100
from repro.hw.model import MachineModel
from repro.hw.plancost import PlanCost
from repro.runtime.clock import VirtualClock
from repro.runtime.loop import EventLoop, SharedCounter
from repro.serve.degrade import DegradePolicy, SdcScoreboard
from repro.serve.durability import (
    REPLAY_MESSAGES_PER_RECORD, WriteAheadJournal, replay_journal,
)
from repro.serve.qos import WeightedFairQueue
from repro.serve.report import (
    ServeReport, latency_percentiles, tenant_breakdown,
)
from repro.serve.request import ProofRequest, RequestResult
from repro.serve.scheduler import REJECT_MESSAGES, ProofServer
from repro.sim.faults import (
    COMPUTE_KINDS, FLEET_KINDS, FaultInjector, FaultPlan, FaultSpec,
)
from repro.sim.trace import Trace, TraceEvent

__all__ = [
    "FAILOVER_MESSAGES", "HEARTBEAT_MESSAGES", "ROUTE_MESSAGES",
    "SDC_PROBE_MESSAGES", "STEAL_MESSAGES", "ConsistentHashRouter",
    "FleetPolicy", "FleetReport", "FleetServer",
]

#: Fabric latency units one routing decision costs (the front door
#: hashes the key and forwards the request to its replica).
ROUTE_MESSAGES = 1

#: Fabric latency units one heartbeat costs (replica -> detector).
HEARTBEAT_MESSAGES = 1

#: Fabric latency units one stolen request costs (victim hand-off plus
#: thief re-admission; both sides journal).
STEAL_MESSAGES = 2

#: Fixed fabric latency units one failover costs (fence the lease,
#: open the victim's journal); each replayed record adds
#: :data:`~repro.serve.durability.REPLAY_MESSAGES_PER_RECORD` on top.
FAILOVER_MESSAGES = 8

#: Fabric latency units one SDC probation probe costs (the controller
#: ships a known-answer kernel to the quarantined replica and reads
#: the digest back).
SDC_PROBE_MESSAGES = 2

# Event-loop priority classes at equal virtual timestamps: a batch
# completion commits before a simultaneous arrival is routed, and both
# land before the heartbeat tick inspects the fleet — so fencing at a
# tick never races a completion that (in virtual time) already
# happened.
_PRI_COMPLETE = 0
_PRI_ARRIVAL = 1
_PRI_HEARTBEAT = 2


def _hash64(text: str) -> int:
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:16], 16)


@dataclass(frozen=True)
class FleetPolicy:
    """Configuration of the replicated fleet's coordination layer.

    Attributes
    ----------
    replicas:
        Number of journaled server replicas.
    heartbeat_interval_s:
        Virtual seconds between heartbeat ticks; fleet faults key on
        the tick index.
    suspect_phi:
        Missed-tick suspicion threshold; crossing it emits a
        ``serve-heartbeat`` suspect transition.
    failover_phi:
        Missed-tick fencing threshold (strictly greater than
        ``suspect_phi``); crossing it fences the replica and replays
        its journal onto the survivors.
    vnodes:
        Virtual nodes per replica on the consistent-hash ring.
    spread:
        Candidate replicas considered per routing decision (the ring
        successor plus ``spread - 1`` alternates; least-loaded wins).
    steal_enabled / steal_threshold / steal_max:
        An idle replica steals up to ``steal_max`` least-urgent
        requests from a replica with at least ``steal_threshold``
        queued.
    tenant_weights:
        ``((tenant, weight), ...)`` pairs installed into every
        replica's :class:`~repro.serve.qos.WeightedFairQueue`.
    quarantine_after:
        ABFT detections on one replica before the SDC scoreboard
        quarantines it (fence + journal failover); ``None`` disables
        the scoreboard (replicas still verify when the plan carries
        compute faults, they just never get quarantined).
    probation_probes:
        Consecutive clean probation probes a quarantined replica must
        answer before it rejoins (empty, under a fresh journal).
    condemn_after:
        Consecutive *faulty* probation probes before a quarantined
        replica is condemned — retired for good, so a device that is
        mercurial on every kernel cannot spin the detector forever.
    """

    replicas: int = 2
    heartbeat_interval_s: float = 5e-4
    suspect_phi: float = 2.0
    failover_phi: float = 4.0
    vnodes: int = 8
    spread: int = 2
    steal_enabled: bool = True
    steal_threshold: int = 4
    steal_max: int = 2
    tenant_weights: tuple[tuple[str, float], ...] = ()
    quarantine_after: int | None = None
    probation_probes: int = 2
    condemn_after: int = 3

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ServeError(f"replicas must be >= 1, got {self.replicas}")
        if not (math.isfinite(self.heartbeat_interval_s)
                and self.heartbeat_interval_s > 0):
            raise ServeError(
                f"heartbeat_interval_s must be finite and > 0, "
                f"got {self.heartbeat_interval_s!r}")
        if not self.suspect_phi > 0:
            raise ServeError(
                f"suspect_phi must be > 0, got {self.suspect_phi}")
        if not self.failover_phi > self.suspect_phi:
            raise ServeError(
                f"failover_phi ({self.failover_phi}) must be strictly "
                f"greater than suspect_phi ({self.suspect_phi}): a "
                "fleet that fences on first suspicion flaps")
        if self.vnodes < 1:
            raise ServeError(f"vnodes must be >= 1, got {self.vnodes}")
        if self.spread < 1:
            raise ServeError(f"spread must be >= 1, got {self.spread}")
        if self.steal_threshold < 2:
            raise ServeError(
                f"steal_threshold must be >= 2, got "
                f"{self.steal_threshold} (stealing the last queued "
                "request just moves the imbalance)")
        if self.steal_max < 1:
            raise ServeError(
                f"steal_max must be >= 1, got {self.steal_max}")
        for entry in self.tenant_weights:
            if (not isinstance(entry, tuple) or len(entry) != 2
                    or not isinstance(entry[0], str) or not entry[0]):
                raise ServeError(
                    f"tenant_weights entries must be (tenant, weight) "
                    f"pairs, got {entry!r}")
            if not entry[1] > 0:
                raise ServeError(
                    f"tenant {entry[0]!r}: weight must be > 0, "
                    f"got {entry[1]}")
        if self.quarantine_after is not None and self.quarantine_after < 1:
            raise ServeError(
                f"quarantine_after must be >= 1, got "
                f"{self.quarantine_after}")
        if self.probation_probes < 1:
            raise ServeError(
                f"probation_probes must be >= 1, got "
                f"{self.probation_probes}")
        if self.condemn_after < 1:
            raise ServeError(
                f"condemn_after must be >= 1, got {self.condemn_after}")


class ConsistentHashRouter:
    """Shape-affine request placement on a consistent-hash ring.

    Each replica owns ``vnodes`` points on a 64-bit ring; a request's
    shape key hashes to a point and walks clockwise collecting the
    first ``spread`` *distinct live* replicas.  Among those candidates
    the least-loaded wins (ties break toward the ring successor).
    Hashing the shape — not the request id — keeps every shape pinned
    to a stable home replica, so plan and twiddle caches concentrate;
    the spread keeps a hot shape from melting one replica.
    """

    def __init__(self, replicas: int, vnodes: int = 8) -> None:
        if replicas < 1:
            raise ServeError(f"replicas must be >= 1, got {replicas}")
        if vnodes < 1:
            raise ServeError(f"vnodes must be >= 1, got {vnodes}")
        self.replicas = replicas
        self.vnodes = vnodes
        ring = []
        for replica in range(replicas):
            for vnode in range(vnodes):
                ring.append((_hash64(f"replica={replica} vnode={vnode}"),
                             replica))
        ring.sort()
        self._ring = ring
        self._points = [point for point, _ in ring]

    @staticmethod
    def key_of(request: ProofRequest) -> tuple[str, int, str]:
        """The shape key routing hashes on."""
        return (request.field_name, request.log_size, request.direction)

    def candidates(self, key: tuple, alive: set[int],
                   spread: int) -> list[int]:
        """The first ``spread`` distinct live replicas clockwise."""
        if not alive:
            return []
        start = bisect.bisect_right(self._points, _hash64(repr(key)))
        seen: set[int] = set()
        out: list[int] = []
        for offset in range(len(self._ring)):
            _, replica = self._ring[(start + offset) % len(self._ring)]
            if replica in alive and replica not in seen:
                seen.add(replica)
                out.append(replica)
                if len(out) >= spread:
                    break
        return out

    def route(self, key: tuple, alive: set[int], spread: int,
              load) -> int:
        """Pick the replica for ``key``: least-loaded candidate.

        ``load`` maps a replica index to its current load (queue
        depth); ties keep ring order, i.e. prefer the primary.
        """
        candidates = self.candidates(key, alive, spread)
        if not candidates:
            raise ServeError("route with no live replicas")
        order = {replica: rank for rank, replica in enumerate(candidates)}
        return min(candidates, key=lambda r: (load(r), order[r]))


class _Replica:
    """One fleet member: a journaled server plus control-plane state."""

    def __init__(self, index: int, server: ProofServer,
                 queue: WeightedFairQueue) -> None:
        self.index = index
        self.server = server
        self.queue = queue
        self.report = ServeReport(machine_name=server.machine.name)
        self.handled: set[int] = set()
        # data plane
        self.alive = True                   # the process itself runs
        self.inflight = None                # InflightBatch between begin/commit
        self.completion_event = None
        self.epoch = 0                      # bumped whenever inflight is voided
        self.stalled: list[ProofRequest] = []   # batch parked by a partition
        self.orphaned = False               # journal holds unemitted dispatches
        # control plane
        self.fenced = False                 # lease revoked; never emits again
        self.partitioned = False
        self.partition_heal_tick = -1
        self.muted = False                  # heartbeats suppressed, still serves
        self.mute_heal_tick = -1
        self.last_beat_tick = 0
        self.suspected = False
        # SDC control plane
        self.sdc_quarantined = False        # fenced by the scoreboard
        self.sdc_probe_failures = 0         # consecutive faulty probes
        self.condemned = False              # retired for good

    @property
    def serving(self) -> bool:
        """Can this replica run dispatches and journal right now?"""
        return self.alive and not self.fenced and not self.partitioned

    @property
    def member(self) -> bool:
        """Does the control plane still count this replica?"""
        return not self.fenced

    @property
    def busy(self) -> bool:
        """Does work or an open suspicion still hang on this replica?"""
        return bool(self.inflight is not None or len(self.queue)
                    or self.stalled or self.suspected or self.orphaned)

    def void_inflight(self, loop: EventLoop) -> None:
        """Drop the in-flight batch (crash/partition/fence) unseen."""
        if self.completion_event is not None:
            loop.cancel(self.completion_event)
            self.completion_event = None
        self.inflight = None
        self.epoch += 1


@dataclass
class FleetReport:
    """The fleet run's complete account: replicas plus coordination.

    Per-replica :class:`~repro.serve.report.ServeReport` objects carry
    the serving-side numbers; the fleet layer adds routing, heartbeat,
    failover, and steal tallies with their priced overhead seconds,
    and the merged (exactly-once-checked) result list.
    """

    machine_name: str
    policy: FleetPolicy
    replica_reports: list[ServeReport] = dataclass_field(
        default_factory=list)
    offered: int = 0
    routed: int = 0
    unroutable: int = 0
    heartbeats: int = 0
    suspicions: int = 0
    detector_recoveries: int = 0
    failovers: int = 0
    failover_requests: int = 0
    replayed_records: int = 0
    deaths: int = 0
    partitions: int = 0
    heartbeat_losses: int = 0
    rejoins: int = 0
    steals: int = 0
    stolen_requests: int = 0
    sdc_probes: int = 0
    sdc_quarantines: int = 0
    sdc_rejoins: int = 0
    sdc_condemned: int = 0
    sdc_quarantined: int = 0
    route_s: float = 0.0
    heartbeat_s: float = 0.0
    failover_s: float = 0.0
    steal_s: float = 0.0
    sdc_probe_s: float = 0.0
    makespan_s: float = 0.0
    results: list[RequestResult] = dataclass_field(default_factory=list)

    # -- aggregates ----------------------------------------------------------

    @property
    def completed(self) -> int:
        return sum(r.completed for r in self.replica_reports)

    @property
    def accepted(self) -> int:
        return sum(r.accepted for r in self.replica_reports)

    @property
    def rejected(self) -> int:
        return (sum(r.rejected for r in self.replica_reports)
                + self.unroutable)

    @property
    def shed(self) -> int:
        return sum(r.shed for r in self.replica_reports)

    @property
    def deadline_misses(self) -> int:
        return sum(r.deadline_misses for r in self.replica_reports)

    @property
    def abft_probes(self) -> int:
        return sum(r.abft_probes for r in self.replica_reports)

    @property
    def abft_detections(self) -> int:
        return sum(r.abft_detections for r in self.replica_reports)

    @property
    def abft_reexecutions(self) -> int:
        return sum(r.abft_reexecutions for r in self.replica_reports)

    @property
    def overhead_s(self) -> float:
        """Coordination seconds the fleet layer itself charged."""
        return (self.route_s + self.heartbeat_s + self.failover_s
                + self.steal_s + self.sdc_probe_s)

    def goodput_rps(self) -> float:
        """Completed requests per virtual second of fleet makespan."""
        if self.makespan_s <= 0:
            return 0.0
        return self.completed / self.makespan_s

    def latency_percentiles_s(self) -> dict[str, float]:
        return latency_percentiles(self.results)

    def tenant_breakdown(self) -> dict[str, dict[str, object]]:
        """Fleet-wide per-tenant accounting (merged across replicas)."""
        rejected: dict[str, int] = {}
        shed: dict[str, int] = {}
        for report in self.replica_reports:
            for tenant, count in report.rejected_by_tenant.items():
                rejected[tenant] = rejected.get(tenant, 0) + count
            for tenant, count in report.shed_by_tenant.items():
                shed[tenant] = shed.get(tenant, 0) + count
        return tenant_breakdown(self.results, rejected, shed)

    # -- pricing -------------------------------------------------------------

    def plan_cost(self, machine: MachineModel) -> PlanCost:
        """Replica costs plus fleet coordination, one validating sum.

        Coordination traffic (routing, heartbeats, failover replay,
        steals) is pure fabric messaging, so — like the single
        server's journal overhead — it lands on the exchange side of
        the multi-GPU fabric level.
        """
        total = compute = 0.0
        seconds_by_level: dict[str, float] = {}
        bytes_by_level: dict[str, int] = {}
        for report in self.replica_reports:
            cost = report.plan_cost(machine)
            total += cost.total_s
            compute += cost.compute_s
            for level, seconds in cost.exchange_s_by_level.items():
                seconds_by_level[level] = \
                    seconds_by_level.get(level, 0.0) + seconds
            for level, nbytes in cost.exchange_bytes_by_level.items():
                bytes_by_level[level] = \
                    bytes_by_level.get(level, 0) + nbytes
        overhead = self.overhead_s
        if overhead:
            total += overhead
            seconds_by_level["multi-gpu"] = \
                seconds_by_level.get("multi-gpu", 0.0) + overhead
        return PlanCost(
            total_s=total, compute_s=compute,
            exchange_s_by_level=dict(sorted(seconds_by_level.items())),
            exchange_bytes_by_level=dict(sorted(bytes_by_level.items())))

    # -- serialization -------------------------------------------------------

    def summary(self) -> dict[str, object]:
        return {
            "abft_detections": self.abft_detections,
            "abft_probes": self.abft_probes,
            "abft_reexecutions": self.abft_reexecutions,
            "accepted": self.accepted,
            "completed": self.completed,
            "deadline_misses": self.deadline_misses,
            "deaths": self.deaths,
            "detector_recoveries": self.detector_recoveries,
            "failover_requests": self.failover_requests,
            "failover_s": self.failover_s,
            "failovers": self.failovers,
            "goodput_rps": self.goodput_rps(),
            "heartbeat_losses": self.heartbeat_losses,
            "heartbeat_s": self.heartbeat_s,
            "heartbeats": self.heartbeats,
            "makespan_s": self.makespan_s,
            "offered": self.offered,
            "partitions": self.partitions,
            "rejected": self.rejected,
            "rejoins": self.rejoins,
            "replayed_records": self.replayed_records,
            "replicas": self.policy.replicas,
            "route_s": self.route_s,
            "routed": self.routed,
            "sdc_condemned": self.sdc_condemned,
            "sdc_probe_s": self.sdc_probe_s,
            "sdc_probes": self.sdc_probes,
            "sdc_quarantined": self.sdc_quarantined,
            "sdc_quarantines": self.sdc_quarantines,
            "sdc_rejoins": self.sdc_rejoins,
            "shed": self.shed,
            "steal_s": self.steal_s,
            "steals": self.steals,
            "stolen_requests": self.stolen_requests,
            "suspicions": self.suspicions,
            "unroutable": self.unroutable,
        }

    def to_json(self) -> str:
        payload = dict(self.summary())
        payload["latency_percentiles_s"] = self.latency_percentiles_s()
        payload["machine"] = self.machine_name
        payload["tenants"] = self.tenant_breakdown()
        payload["replica_summaries"] = [
            r.summary() for r in self.replica_reports]
        return json.dumps(payload, indent=2, sort_keys=True)


class FleetServer:
    """N journaled proof-server replicas behind one router and detector.

    Parameters mirror :class:`~repro.serve.scheduler.ProofServer`
    where they configure the per-replica servers; ``policy`` holds the
    fleet-level knobs and ``faults`` a plan of *fleet-kind* specs
    (``replica-crash`` / ``network-partition`` / ``heartbeat-loss``,
    keyed to heartbeat ticks) and/or *compute-kind* specs
    (``compute-bitflip`` / ``twiddle-corrupt`` / ``mercurial-device``,
    routed by their ``replica=`` field into a private per-replica
    injector).  Fabric faults still belong on a single server's
    injector, not here — mixing the layers would make one replica's
    retry storm look like a fleet event.

    ``abft=True`` forces verify-before-emit on every replica even
    without a fault plan; a plan carrying compute kinds (or a policy
    with ``quarantine_after``) turns it on implicitly, since silent
    corruption is invisible without the probes.

    A ``FleetServer`` is one-shot like a journaled ``ProofServer``:
    build, :meth:`serve` once, read the :class:`FleetReport`.
    """

    def __init__(self, machine: MachineModel = DGX_A100, *,
                 policy: FleetPolicy | None = None,
                 faults: FaultPlan | None = None,
                 queue_capacity: int = 64,
                 max_batch_requests: int = 16,
                 batching: bool = True,
                 caching: bool = True,
                 strategy: str | None = None,
                 twiddle_capacity: int | None = None,
                 snapshot_every: int = 8,
                 abft: bool = False) -> None:
        self.policy = policy if policy is not None else FleetPolicy()
        self.machine = machine
        self.queue_capacity = queue_capacity
        self._fault_ticks: dict[int, list[FaultSpec]] = {}
        compute_plans: list[FaultPlan | None] = [
            None for _ in range(self.policy.replicas)]
        if faults is not None:
            alien = [f for f in faults.faults
                     if f.kind not in FLEET_KINDS
                     and f.kind not in COMPUTE_KINDS]
            if alien:
                raise ServeError(
                    "FleetServer faults must be fleet kinds "
                    f"({', '.join(sorted(FLEET_KINDS))}) or compute "
                    f"kinds ({', '.join(sorted(COMPUTE_KINDS))}); "
                    "fabric faults belong on a single server's "
                    f"injector (got "
                    f"{', '.join(f.label() for f in alien)})")
            for spec in faults.faults:
                if spec.replica >= self.policy.replicas:
                    raise ServeError(
                        f"fault {spec.label()} targets replica "
                        f"{spec.replica} but the fleet has only "
                        f"{self.policy.replicas}")
                if spec.kind in FLEET_KINDS:
                    self._fault_ticks.setdefault(
                        spec.step, []).append(spec)
            for index in range(self.policy.replicas):
                plan = faults.replica_compute_plan(index)
                if plan.faults:
                    compute_plans[index] = plan
        self._abft = (abft or self.policy.quarantine_after is not None
                      or any(p is not None for p in compute_plans))
        self._scoreboard = (
            SdcScoreboard(
                quarantine_after=self.policy.quarantine_after,
                probation_probes=self.policy.probation_probes)
            if self.policy.quarantine_after is not None else None)
        self._sdc_seen: dict[int, int] = {}
        self.step_counter = SharedCounter()
        self.trace = Trace(counter=self.step_counter)
        self.batch_counter = SharedCounter()
        self.router = ConsistentHashRouter(self.policy.replicas,
                                           self.policy.vnodes)
        weights = dict(self.policy.tenant_weights)
        self._queue_weights = weights
        # Compute-fault deltas are applied modulo the Goldilocks prime
        # — the same field-independent convention the fleet's overhead
        # model uses.  A corrupted value may leave a smaller field's
        # range entirely; that is still a corruption, and the ABFT
        # probe (which reduces mod the batch's own prime) catches it
        # the same way.
        fault_modulus = field_by_name("Goldilocks").modulus
        self.replicas = [
            _Replica(
                index,
                ProofServer(
                    machine,
                    queue_capacity=queue_capacity,
                    max_batch_requests=max_batch_requests,
                    batching=batching, caching=caching,
                    strategy=strategy,
                    twiddle_capacity=twiddle_capacity,
                    snapshot_every=snapshot_every,
                    injector=(FaultInjector(compute_plans[index],
                                            fault_modulus)
                              if compute_plans[index] is not None
                              else None),
                    # Verifying replicas get a degrade policy so a
                    # persistently mercurial device finishes its batch
                    # on the clean single-GPU fallback instead of
                    # raising out of the fleet loop; the scoreboard
                    # then quarantines the replica at the next tick.
                    degrade=DegradePolicy() if self._abft else None,
                    abft=self._abft,
                    journal=WriteAheadJournal(),
                    trace=self.trace,
                    batch_counter=self.batch_counter,
                    replica=index),
                WeightedFairQueue(queue_capacity, weights=weights))
            for index in range(self.policy.replicas)
        ]
        # Coordination traffic is field-independent fabric messaging;
        # one memoized model prices all of it (same convention as the
        # single server's journal overhead).
        self._overhead_model = CostModel(machine,
                                         field_by_name("Goldilocks"))
        self._parked: list[ProofRequest] = []
        self._arrivals_pending = 0
        self._served = False

    # -- helpers -------------------------------------------------------------

    def _overhead_seconds(self, messages: int) -> float:
        return self._overhead_model.estimate(
            [Phase(name="fleet-overhead", messages=messages)]).total_s

    def _fleet_event(self, kind: str, detail: str) -> None:
        self.trace.record(TraceEvent(kind=kind, level="serve",
                                     detail=detail))

    def _reachable(self) -> set[int]:
        """Replicas the router may place new work on right now."""
        return {r.index for r in self.replicas if r.serving}

    def _fresh_queue(self) -> WeightedFairQueue:
        return WeightedFairQueue(self.queue_capacity,
                                 weights=self._queue_weights)

    # -- the event loop ------------------------------------------------------

    def serve(self, requests: list[ProofRequest]) -> FleetReport:
        """Run the workload across the fleet; returns the full account."""
        if self._served:
            raise ServeError(
                "FleetServer is one-shot: build a fresh fleet per run "
                "(replica journals and caches carry the previous run)")
        self._served = True
        ids = [r.request_id for r in requests]
        if len(set(ids)) != len(ids):
            raise ServeError("workload has duplicate request ids")
        clock = VirtualClock(0.0)
        loop = EventLoop(clock)
        fleet = FleetReport(
            machine_name=self.machine.name, policy=self.policy,
            replica_reports=[r.report for r in self.replicas])
        arrivals = sorted(requests,
                          key=lambda r: (r.arrival_s, r.request_id))
        for request in arrivals:
            loop.schedule(request.arrival_s, "arrival", request,
                          priority=_PRI_ARRIVAL)
        self._arrivals_pending = len(arrivals)
        loop.schedule(0.0, "heartbeat", 0, priority=_PRI_HEARTBEAT)
        while not loop.empty:
            event = loop.pop_next()
            if event.kind == "arrival":
                self._on_arrival(event.payload, clock, loop, fleet)
            elif event.kind == "complete":
                self._on_completion(event.payload, clock, loop, fleet)
            elif event.kind == "heartbeat":
                self._on_heartbeat(event.payload, clock, loop, fleet)
        if self._parked:
            lost = sorted(r.request_id for r in self._parked)
            raise ServeError(
                f"fleet lost every replica with {len(lost)} admitted "
                f"request(s) outstanding: {lost}")
        results = sorted(
            (result for replica in self.replicas
             for result in replica.report.results),
            key=lambda result: result.request.request_id)
        emitted = [result.request.request_id for result in results]
        duplicates = sorted({i for i in emitted if emitted.count(i) > 1})
        if duplicates:
            raise ServeError(
                f"exactly-once violated: requests {duplicates} were "
                "emitted by more than one replica")
        fleet.results = results
        fleet.makespan_s = clock.now_s
        if self._scoreboard is not None:
            fleet.sdc_quarantined = len(self._scoreboard.quarantined())
        for replica in self.replicas:
            replica.report.makespan_s = clock.now_s
        return fleet

    # -- arrivals ------------------------------------------------------------

    def _on_arrival(self, request: ProofRequest, clock: VirtualClock,
                    loop: EventLoop, fleet: FleetReport) -> None:
        self._arrivals_pending -= 1
        fleet.offered += 1
        reachable = self._reachable()
        if not reachable:
            # Total outage: the front door itself refuses (there is no
            # journal to admit into, so this is a clean fleet-level
            # rejection, not lost work).
            fleet.unroutable += 1
            fleet.route_s += self._overhead_seconds(REJECT_MESSAGES)
            self._fleet_event(
                "serve-route",
                f"request={request.request_id} replica=none "
                f"rejected=no-reachable-replica")
            return
        target = self.replicas[self.router.route(
            self.router.key_of(request), reachable, self.policy.spread,
            lambda index: len(self.replicas[index].queue))]
        fleet.routed += 1
        fleet.route_s += self._overhead_seconds(ROUTE_MESSAGES)
        self._fleet_event(
            "serve-route",
            f"request={request.request_id} replica={target.index} "
            f"tenant={request.tenant_id} "
            f"key={request.field_name}/{request.log_size}"
            f"/{request.direction}")
        target.report.offered += 1
        target.server._admit(request, target.queue, clock, target.report,
                             target.handled)
        self._pump(target, clock, loop)

    # -- dispatch / completion ----------------------------------------------

    def _pump(self, replica: _Replica, clock: VirtualClock,
              loop: EventLoop) -> None:
        """Start the replica's next dispatch if it is idle."""
        if not replica.serving or replica.inflight is not None:
            return
        if replica.queue.empty:
            return
        inflight = replica.server._begin_next(replica.queue, clock,
                                              replica.report)
        replica.inflight = inflight
        replica.completion_event = loop.schedule(
            clock.now_s + inflight.duration_s, "complete",
            (replica.index, replica.epoch), priority=_PRI_COMPLETE)

    def _on_completion(self, payload: tuple[int, int],
                       clock: VirtualClock, loop: EventLoop,
                       fleet: FleetReport) -> None:
        index, epoch = payload
        replica = self.replicas[index]
        if replica.epoch != epoch or replica.inflight is None:
            return  # fenced/voided after scheduling; the event is stale
        inflight = replica.inflight
        replica.inflight = None
        replica.completion_event = None
        replica.server._finish(inflight, replica.queue, clock,
                               replica.report, replica.handled)
        self._pump(replica, clock, loop)
        if (replica.serving and replica.inflight is None
                and self.policy.steal_enabled):
            self._maybe_steal(replica, clock, loop, fleet)

    # -- work stealing -------------------------------------------------------

    def _maybe_steal(self, thief: _Replica, clock: VirtualClock,
                     loop: EventLoop, fleet: FleetReport) -> None:
        """An idle replica relieves the most-loaded serving one."""
        if (not thief.serving or thief.inflight is not None
                or not thief.queue.empty):
            return
        victims = [r for r in self.replicas
                   if r is not thief and r.serving
                   and len(r.queue) >= self.policy.steal_threshold]
        if not victims:
            return
        victim = max(victims, key=lambda r: (len(r.queue), -r.index))
        count = min(self.policy.steal_max, len(victim.queue) - 1)
        if count < 1:
            return
        for request in victim.queue.drop_worst(count):
            victim.server._journal_append(
                "steal",
                {"request_id": request.request_id, "to": thief.index},
                clock, victim.report)
            thief.queue.restore([request])
            thief.server._journal_append(
                "admit", {"request": request.to_record()}, clock,
                thief.report)
            fleet.stolen_requests += 1
            fleet.steal_s += self._overhead_seconds(STEAL_MESSAGES)
            self._fleet_event(
                "serve-steal",
                f"request={request.request_id} from={victim.index} "
                f"to={thief.index}")
        fleet.steals += 1
        self._pump(thief, clock, loop)

    # -- heartbeats, detection, faults ---------------------------------------

    def _on_heartbeat(self, tick: int, clock: VirtualClock,
                      loop: EventLoop, fleet: FleetReport) -> None:
        # 1. inject the fleet faults scheduled for this tick.
        for spec in self._fault_ticks.get(tick, []):
            self.trace.record(TraceEvent(
                kind="fault", level="resilience", detail=spec.label()))
            replica = self.replicas[spec.replica]
            if spec.kind == "replica-crash":
                fleet.deaths += 1
                replica.alive = False
                if replica.inflight is not None:
                    replica.void_inflight(loop)
                    replica.orphaned = True
            elif spec.kind == "network-partition":
                fleet.partitions += 1
                replica.partitioned = True
                replica.partition_heal_tick = tick + spec.count
                if replica.inflight is not None:
                    # The batch's compute is lost mid-flight; its
                    # requests are parked and re-queued at heal (the
                    # journal's dispatch record stays orphaned until
                    # the heal's "recover" record reconciles it).
                    replica.stalled = list(replica.inflight.group)
                    replica.void_inflight(loop)
            elif spec.kind == "heartbeat-loss":
                fleet.heartbeat_losses += 1
                replica.muted = True
                replica.mute_heal_tick = tick + spec.count

        # 2. heal partitions and heartbeat mutes ending at this tick.
        # (An SDC-quarantined replica never rejoins through a heal —
        # it has to earn its way back through probation probes.)
        for replica in self.replicas:
            if replica.partitioned \
                    and tick >= replica.partition_heal_tick:
                replica.partitioned = False
                if replica.sdc_quarantined:
                    pass
                elif replica.fenced:
                    self._rejoin(replica, tick, clock, loop, fleet)
                else:
                    self._resume_after_partition(replica, clock, loop)
            if replica.muted and tick >= replica.mute_heal_tick:
                replica.muted = False
                if (replica.fenced and replica.alive
                        and not replica.sdc_quarantined):
                    self._rejoin(replica, tick, clock, loop, fleet)

        # 3. heartbeats: everything alive, unfenced, and connected beats.
        for replica in self.replicas:
            if (replica.alive and not replica.fenced
                    and not replica.partitioned and not replica.muted):
                replica.last_beat_tick = tick
                fleet.heartbeats += 1
                fleet.heartbeat_s += self._overhead_seconds(
                    HEARTBEAT_MESSAGES)
                if replica.suspected:
                    replica.suspected = False
                    fleet.detector_recoveries += 1
                    self._fleet_event(
                        "serve-heartbeat",
                        f"replica={replica.index} recovered tick={tick}")

        # 4. the failure detector: phi = missed heartbeat ticks.
        for replica in self.replicas:
            if not replica.member:
                continue
            phi = float(tick - replica.last_beat_tick)
            if phi >= self.policy.failover_phi:
                if not replica.suspected:
                    # Thresholds closer than one tick apart can cross
                    # both at once; the suspicion still precedes its
                    # resolution in the trace.
                    fleet.suspicions += 1
                    self._fleet_event(
                        "serve-heartbeat",
                        f"replica={replica.index} suspect phi={phi:g} "
                        f"tick={tick}")
                replica.suspected = False
                self._failover(replica, tick, clock, loop, fleet)
            elif phi >= self.policy.suspect_phi \
                    and not replica.suspected:
                replica.suspected = True
                fleet.suspicions += 1
                self._fleet_event(
                    "serve-heartbeat",
                    f"replica={replica.index} suspect phi={phi:g} "
                    f"tick={tick}")

        # 5. the SDC scoreboard: poll ABFT detections, quarantine
        # mercurial replicas, probe the quarantined, rejoin the clean.
        if self._scoreboard is not None:
            self._sdc_tick(tick, clock, loop, fleet)

        # 6. idle serving replicas may steal queued work.
        if self.policy.steal_enabled:
            for replica in self.replicas:
                self._maybe_steal(replica, clock, loop, fleet)

        # 7. keep ticking while any outcome still depends on the
        # detector or on queued/in-flight/pending work.
        if not self._work_remaining():
            return
        if (self._parked and not self._revival_possible(tick)
                and not any(t > tick for t in self._fault_ticks)
                and not any(r.busy for r in self.replicas)):
            # Everything left is parked, no replica can ever serve
            # again, and no scheduled fault could change that: further
            # ticks are no-ops.  Stop beating; once the arrival events
            # drain, serve() reports the stranded requests as a
            # ServeError instead of spinning the detector forever.
            return
        interval = self.policy.heartbeat_interval_s
        next_tick = tick + 1
        if self._fleet_idle():
            # Nothing queued, nothing in flight, nobody silent: the
            # only reason to tick is the *next* arrival or the next
            # scheduled fault.  Coalesce the idle gap (the skipped
            # beats are not priced; every member kept beating).
            next_time = loop.peek_next_time()
            if next_time is not None:
                candidate = max(next_tick,
                                int(math.floor(next_time / interval)))
                pending_faults = [t for t in self._fault_ticks
                                  if t > tick]
                if pending_faults:
                    candidate = min(candidate, min(pending_faults))
                if candidate > next_tick:
                    for replica in self.replicas:
                        if replica.member and replica.alive:
                            replica.last_beat_tick = candidate - 1
                    next_tick = candidate
        loop.schedule(next_tick * interval, "heartbeat", next_tick,
                      priority=_PRI_HEARTBEAT)

    def _work_remaining(self) -> bool:
        return bool(self._arrivals_pending > 0 or self._parked
                    or any(r.busy for r in self.replicas))

    def _revival_possible(self, tick: int) -> bool:
        """Could any replica serve now or re-enter service later?

        A serving replica counts; so does one whose partition or mute
        heals at a future tick (the heal path resumes or rejoins it).
        A crashed replica — fenced or not — never comes back: the
        crash kinds model process death, not disconnection.
        """
        for replica in self.replicas:
            if replica.serving:
                return True
            if not replica.alive:
                continue
            if replica.sdc_quarantined and not replica.condemned:
                return True  # probation probes may still rejoin it
            if replica.partitioned and replica.partition_heal_tick > tick:
                return True
            if replica.fenced and (replica.partition_heal_tick > tick
                                   or replica.mute_heal_tick > tick):
                return True
        return False

    def _fleet_idle(self) -> bool:
        """True when only future arrivals/faults could need a tick."""
        for replica in self.replicas:
            if replica.busy:
                return False
            if replica.member and not (replica.alive
                                       and not replica.partitioned
                                       and not replica.muted):
                return False  # someone is silent; phi must keep rising
        return not self._parked

    # -- SDC quarantine ------------------------------------------------------

    def _sdc_tick(self, tick: int, clock: VirtualClock,
                  loop: EventLoop, fleet: FleetReport) -> None:
        """One scoreboard pass: poll detections, probe the quarantined.

        A replica crossing ``quarantine_after`` is suspected and
        failed over — the same fence-then-replay hand-off a silent
        replica gets, so its in-flight and queued work lands on the
        survivors exactly once.  While quarantined it answers one
        known-answer probe kernel per tick: clean probes walk it
        through probation back to a :meth:`_rejoin`; faulty probes
        re-quarantine it, and ``condemn_after`` consecutive failures
        condemn it for good.
        """
        board = self._scoreboard
        for replica in self.replicas:
            if replica.condemned or not replica.alive:
                continue
            subject = f"replica-{replica.index}"
            if replica.sdc_quarantined:
                clean = self._sdc_probe(replica, tick, fleet)
                if clean:
                    replica.sdc_probe_failures = 0
                    verb = board.record_clean(subject)
                    self._fleet_event(
                        "serve-quarantine",
                        f"replica={replica.index} action="
                        f"{verb if verb is not None else 'probe-clean'} "
                        f"tick={tick}")
                    if verb == "rejoin":
                        fleet.sdc_rejoins += 1
                        replica.sdc_quarantined = False
                        self._rejoin(replica, tick, clock, loop, fleet)
                else:
                    replica.sdc_probe_failures += 1
                    board.record_detection(subject)
                    self._fleet_event(
                        "serve-quarantine",
                        f"replica={replica.index} action=probe-faulty "
                        f"failures={replica.sdc_probe_failures} "
                        f"tick={tick}")
                    if replica.sdc_probe_failures \
                            >= self.policy.condemn_after:
                        replica.condemned = True
                        fleet.sdc_condemned += 1
                        self._fleet_event(
                            "serve-quarantine",
                            f"replica={replica.index} action=condemn "
                            f"tick={tick}")
                continue
            seen = self._sdc_seen.get(replica.index, 0)
            now = replica.report.abft_detections
            if now <= seen:
                continue
            self._sdc_seen[replica.index] = now
            verb = None
            for _ in range(now - seen):
                claimed = board.record_detection(subject)
                verb = claimed if claimed is not None else verb
            if verb == "quarantine" and replica.member:
                fleet.sdc_quarantines += 1
                replica.sdc_quarantined = True
                self._fleet_event(
                    "serve-quarantine",
                    f"replica={replica.index} action=quarantine "
                    f"detections={board.detections(subject)} "
                    f"tick={tick}")
                # The quarantine is a suspicion the failover resolves,
                # keeping the detector's account one-to-one for the
                # trace audit.
                fleet.suspicions += 1
                self._fleet_event(
                    "serve-heartbeat",
                    f"replica={replica.index} suspect sdc tick={tick}")
                self._failover(replica, tick, clock, loop, fleet)

    def _sdc_probe(self, replica: _Replica, tick: int,
                   fleet: FleetReport) -> bool:
        """Run one known-answer kernel on the quarantined replica.

        The probe pushes a small deterministic buffer through every
        per-field cluster's local-compute hook — the exact choke point
        the compute-fault injector corrupts through — and checks the
        buffer came back untouched.  Any corruption the probe catches
        is claimed from the injector and answered with ``abft-detect``
        events, so probe-time faults pair one-to-one with detections
        like dispatch-time ones.
        """
        fleet.sdc_probes += 1
        fleet.sdc_probe_s += self._overhead_seconds(SDC_PROBE_MESSAGES)
        server = replica.server
        clean = True
        for name in sorted(server._clusters):
            cluster = server._clusters[name]
            probe = [[(7 * gpu + k + 1) % cluster.field.modulus
                      for k in range(8)]
                     for gpu in range(cluster.gpu_count)]
            expected = [list(vec) for vec in probe]
            buffers = {gpu: [probe[gpu]]
                       for gpu in range(cluster.gpu_count)}
            cluster.local_compute_hook(
                buffers, f"sdc-probe replica={replica.index} tick={tick}")
            if probe != expected:
                clean = False
        injector = server.injector
        if not clean and injector is not None \
                and hasattr(injector, "claim_compute_faults"):
            for label in injector.claim_compute_faults():
                self.trace.record(TraceEvent(
                    kind="abft-detect", level="resilience",
                    detail=f"sdc-probe replica={replica.index} "
                           f"fault={label} tick={tick}"))
        return clean

    # -- partition heal / rejoin / failover ----------------------------------

    def _resume_after_partition(self, replica: _Replica,
                                clock: VirtualClock,
                                loop: EventLoop) -> None:
        """A short partition healed before fencing: resume in place.

        The replica kept its lease; it journals a ``recover`` record
        (whose replay moves unemitted in-flight work back to queued —
        the same reconciliation single-server recovery writes) and
        re-queues the batch the partition interrupted.
        """
        if replica.stalled:
            replica.server._journal_append(
                "recover",
                {"reason": "network-partition-heal",
                 "requeued": sorted(r.request_id
                                    for r in replica.stalled)},
                clock, replica.report)
            replica.queue.restore(replica.stalled)
            replica.stalled = []
        self._pump(replica, clock, loop)

    def _rejoin(self, replica: _Replica, tick: int, clock: VirtualClock,
                loop: EventLoop, fleet: FleetReport) -> None:
        """A fenced replica comes back — empty, under a fresh journal.

        Its previous journal was already failed over; handing it a new
        one (a new incarnation's log) is what makes a second failover
        of the same replica safe: there is no stale record to replay
        twice.
        """
        replica.server.journal = WriteAheadJournal()
        replica.queue = self._fresh_queue()
        replica.handled = set()
        replica.fenced = False
        replica.alive = True
        replica.suspected = False
        replica.orphaned = False
        replica.stalled = []
        replica.last_beat_tick = tick
        fleet.rejoins += 1
        self._fleet_event(
            "serve-heartbeat", f"replica={replica.index} rejoin "
            f"tick={tick}")
        self._drain_parked(clock, loop, fleet)
        if self.policy.steal_enabled:
            self._maybe_steal(replica, clock, loop, fleet)

    def _failover(self, replica: _Replica, tick: int,
                  clock: VirtualClock, loop: EventLoop,
                  fleet: FleetReport) -> None:
        """Fence a silent replica and replay its journal onto survivors.

        Fencing strictly precedes the replay: once fenced, the replica
        never journals or emits again (stale completion events are
        epoch-checked away), so a request is either already emitted in
        the journal — and stays with the victim's results — or is an
        orphan re-admitted on exactly one survivor.  That ordering is
        the exactly-once argument.
        """
        replica.fenced = True
        if replica.inflight is not None:
            replica.void_inflight(loop)
        replica.orphaned = False
        replica.stalled = []
        replica.queue = self._fresh_queue()
        orphans: tuple[ProofRequest, ...] = ()
        replayed = 0
        if len(replica.server.journal):
            resume = replay_journal(replica.server.journal)
            orphans = resume.queued
            replayed = resume.replayed_records
        fleet.failovers += 1
        fleet.failover_requests += len(orphans)
        fleet.replayed_records += replayed
        fleet.failover_s += self._overhead_seconds(
            FAILOVER_MESSAGES + REPLAY_MESSAGES_PER_RECORD * replayed)
        self._fleet_event(
            "serve-failover",
            f"replica={replica.index} orphans={len(orphans)} "
            f"replayed={replayed} tick={tick}")
        touched: list[_Replica] = []
        for request in orphans:
            target = self._readmit(request, clock, fleet)
            if target is not None and target not in touched:
                touched.append(target)
        for target in touched:
            self._pump(target, clock, loop)

    def _readmit(self, request: ProofRequest, clock: VirtualClock,
                 fleet: FleetReport) -> _Replica | None:
        """Place one failover orphan on a survivor (or park it)."""
        reachable = self._reachable()
        if not reachable:
            self._parked.append(request)
            return None
        target = self.replicas[self.router.route(
            self.router.key_of(request), reachable, self.policy.spread,
            lambda index: len(self.replicas[index].queue))]
        # Failed-over work is an obligation, not an offer: it bypasses
        # the admission bound exactly like single-server recovery's
        # requeue does.
        target.queue.restore([request])
        target.report.recovered_requests += 1
        target.server._serve_event(
            "serve-accept",
            f"request={request.request_id} failover "
            f"queue={len(target.queue)}/{target.queue.capacity}")
        target.server._journal_append(
            "admit", {"request": request.to_record()}, clock,
            target.report)
        self._fleet_event(
            "serve-route",
            f"request={request.request_id} replica={target.index} "
            f"tenant={request.tenant_id} failover")
        return target

    def _drain_parked(self, clock: VirtualClock, loop: EventLoop,
                      fleet: FleetReport) -> None:
        if not self._parked:
            return
        parked, self._parked = self._parked, []
        touched: list[_Replica] = []
        for request in parked:
            target = self._readmit(request, clock, fleet)
            if target is not None and target not in touched:
                touched.append(target)
        for target in touched:
            self._pump(target, clock, loop)
