"""The proof-serving scheduler: a deterministic request-serving loop.

:class:`ProofServer` turns a stream of
:class:`~repro.serve.request.ProofRequest` records into completed
transforms over one simulated machine.  The loop is a discrete-event
simulation on a :class:`~repro.runtime.clock.VirtualClock` — no wall
time anywhere — so the same workload replays bit-identically:

1. **Admit** every request whose arrival time has passed into the
   bounded :class:`~repro.serve.queue.AdmissionQueue`; refuse (and
   price the refusal) when the queue is full.
2. **Coalesce** the most urgent request with every compatible queued
   request (same field, size, direction) into one cross-request batch.
3. **Plan** via the keyed :class:`~repro.serve.cache.PlanCache`:
   choose ``replicate`` vs ``split`` by modeled batch seconds, with
   misses priced at :data:`~repro.serve.cache.PLAN_MISS_MESSAGES`.
4. **Stage twiddles** via the shared
   :class:`~repro.serve.cache.TwiddleLedger`: the first dispatch of a
   shape pays the table generation; later ones are charged zero
   recompute.
5. **Dispatch** through
   :class:`~repro.multigpu.batch_engine.BatchedDistributedNTT` against
   the shared simulated cluster, retrying transient faults with
   exponential backoff (every wasted attempt and every backoff wait is
   priced into that dispatch's duration).
6. **Advance** the clock by the dispatch's modeled duration and record
   per-request results.

Two optional layers harden the loop:

* **Durability** (``journal=WriteAheadJournal()``): every admission,
  rejection, shed, dispatch, emit, and completion is written to the
  :mod:`~repro.serve.durability` write-ahead journal *before* the
  crash point that could lose it, with periodic ``ServerSnapshot``
  checkpoints at quiescent points.  An injected ``server-crash@seq``
  fault (``crash_plan``) raises :class:`~repro.errors.ServerCrashError`
  the moment the journal reaches that sequence number; a
  :class:`~repro.serve.durability.RecoveryManager` then resumes the
  run bit-identically via ``serve(requests, resume=...)``.
* **Graceful degradation** (``degrade=DegradePolicy()``): per-engine
  circuit breakers with half-open probing, automatic fallback to a
  single-GPU cluster (zero collectives — no fabric fault reaches it)
  when the primary engine is breaker-open or retries are exhausted,
  and fault-rate-triggered shedding of the least-urgent queued
  requests.  See :mod:`repro.serve.degrade`.
* **SDC defense** (``abft=True`` / ``quarantine_after=N``): every
  primary dispatch lane is Freivalds-verified before its result is
  emitted (:mod:`repro.multigpu.abft`), so silently corrupted compute
  retries or diverts instead of reaching a client; with
  ``quarantine_after`` the per-engine :class:`SdcScoreboard`
  quarantines a repeatedly-detected engine to the fallback and rejoins
  it after probationary clean probes.

Every decision emits a ``serve``-level trace event into the server's
shared trace, so :mod:`repro.analysis.tracecheck` can audit a serving
run exactly like any other execution.
"""

from __future__ import annotations

from repro.errors import (
    DeviceLostError, ServeError, ServerCrashError, ShardCorruptionError,
    TransientCommError,
)
from repro.field.presets import field_by_name
from repro.field.prime_field import PrimeField
from repro.hw.cost import CostModel, Phase, Step
from repro.hw.machines import DGX_A100
from repro.hw.model import MachineModel
from repro.multigpu.abft import AbftChecker, ProbeLedger
from repro.multigpu.batch_engine import BatchedDistributedNTT
from repro.serve.cache import PLAN_MISS_MESSAGES, PlanCache, TwiddleLedger
from repro.serve.degrade import CircuitBreaker, DegradePolicy, SdcScoreboard
from repro.serve.durability import (
    JOURNAL_MESSAGES, RECOVER_MESSAGES, REPLAY_MESSAGES_PER_RECORD,
    SNAPSHOT_MESSAGES, ResumeState, ServerSnapshot, WriteAheadJournal,
    output_digest,
)
from repro.runtime.clock import VirtualClock
from repro.runtime.loop import SharedCounter
from repro.serve.queue import AdmissionQueue
from repro.serve.report import DispatchRecord, ServeReport
from repro.serve.request import ProofRequest, RequestResult
from repro.sim.cluster import SimCluster
from repro.sim.faults import FaultPlan
from repro.sim.trace import Trace, TraceEvent

__all__ = ["DISPATCH_MESSAGES", "REJECT_MESSAGES", "InflightBatch",
           "ProofServer"]

#: Fabric latency units of fixed per-dispatch overhead (host-side batch
#: assembly plus the kernel-launch train).  This is the cost batching
#: amortizes: one coalesced dispatch of eight requests pays it once,
#: eight one-at-a-time dispatches pay it eight times.
DISPATCH_MESSAGES = 32

#: Fabric latency units one refused request costs — the front door does
#: work to say no (a real admission controller still parses, checks,
#: and answers the request it sheds).
REJECT_MESSAGES = 1

#: Errors a dispatch may retry (or divert to the fallback engine).
_RETRYABLE = (TransientCommError, ShardCorruptionError)


class InflightBatch:
    """One dispatched-but-uncommitted batch (between begin and commit).

    ``_dispatch_begin`` journals the dispatch intent and runs the
    engines; ``_dispatch_commit`` — at the batch's modeled completion
    time — emits the results and journals them.  The single-server
    loop commits immediately after advancing the clock, so the split
    is invisible there; the fleet holds the object while other
    replicas make progress, and *discards* it if its replica is fenced
    before the completion event fires (the orphaned dispatch record is
    then what journal failover replays).
    """

    def __init__(self, *, group: list[ProofRequest], batch_id: int,
                 strategy_label: str, total_vectors: int,
                 duration_s: float, attempts: int,
                 steps: tuple[Step, ...],
                 outputs: list[list[int]], start_s: float) -> None:
        self.group = group
        self.batch_id = batch_id
        self.strategy_label = strategy_label
        self.total_vectors = total_vectors
        self.duration_s = duration_s
        self.attempts = attempts
        self.steps = steps
        self.outputs = outputs
        self.start_s = start_s


class ProofServer:
    """Deterministic serving of transform requests on one machine.

    Parameters
    ----------
    machine:
        Machine preset the run is priced on (default DGX-A100).
    queue_capacity:
        Admission bound; arrivals beyond it are rejected (and priced).
    max_batch_requests:
        Most requests one cross-request batch may coalesce.
    batching:
        ``False`` serves strictly one request per dispatch — the
        baseline arm of the f21 benchmark.
    caching:
        ``False`` rebuilds plans and twiddles from scratch for every
        dispatch (so misses recur); the other f21 baseline knob.
    strategy:
        Pin ``"replicate"`` or ``"split"`` instead of letting the plan
        cache choose per batch.
    twiddle_capacity:
        LRU bound on resident twiddle tables (``None`` = unbounded).
    max_attempts:
        Bounded-retry limit per dispatch under injected faults.
    backoff_messages:
        Base fabric-latency units of exponential retry backoff.
    injector:
        Optional :class:`~repro.sim.faults.FaultInjector`; installed on
        the shared cluster so its collective counter spans the whole
        serving run (faults land mid-stream).
    journal:
        Optional :class:`~repro.serve.durability.WriteAheadJournal`.
        The journal lives *outside* the server (it survives a crash);
        a recovery server must be constructed with the same object.
    snapshot_every:
        Journal records between :class:`ServerSnapshot` checkpoints.
    crash_plan:
        Optional :class:`~repro.sim.faults.FaultPlan` containing only
        ``server-crash`` specs; the server raises
        :class:`~repro.errors.ServerCrashError` when the journal
        reaches a listed sequence number.  Requires ``journal``.
    degrade:
        Optional :class:`~repro.serve.degrade.DegradePolicy` enabling
        circuit breakers, single-GPU fallback, and load shedding.
    trace:
        Optional shared :class:`~repro.sim.trace.Trace` to append to
        instead of a private one.  The fleet passes one trace to every
        replica so a single audit covers the whole fleet.
    batch_counter:
        Optional shared :class:`~repro.runtime.loop.SharedCounter` for
        batch ids.  With it, batch ids are globally unique across all
        servers drawing from the counter — the property the fleet's
        duplicate-completion tracecheck rule relies on.
    replica:
        Optional fleet replica index.  When set, every serve-level
        trace event this server emits carries a trailing
        ``replica=<n>`` token, which is how the shared-trace audit
        rules (journal gaplessness, suspicion resolution) attribute
        events to replicas.  ``None`` (the default) leaves the
        single-server event format byte-identical to every earlier
        release.
    """

    def __init__(self, machine: MachineModel = DGX_A100, *,
                 queue_capacity: int = 64,
                 max_batch_requests: int = 16,
                 batching: bool = True,
                 caching: bool = True,
                 strategy: str | None = None,
                 twiddle_capacity: int | None = None,
                 max_attempts: int = 3,
                 backoff_messages: int = 4,
                 injector=None,
                 journal: WriteAheadJournal | None = None,
                 snapshot_every: int = 8,
                 crash_plan: FaultPlan | None = None,
                 degrade: DegradePolicy | None = None,
                 abft: bool = False,
                 quarantine_after: int | None = None,
                 trace: Trace | None = None,
                 batch_counter: SharedCounter | None = None,
                 replica: int | None = None) -> None:
        if max_batch_requests < 1:
            raise ServeError(
                f"max_batch_requests must be >= 1, got {max_batch_requests}")
        if max_attempts < 1:
            raise ServeError(
                f"max_attempts must be >= 1, got {max_attempts}")
        if backoff_messages < 0:
            raise ServeError(
                f"backoff_messages must be >= 0, got {backoff_messages}")
        if snapshot_every < 1:
            raise ServeError(
                f"snapshot_every must be >= 1, got {snapshot_every}")
        if quarantine_after is not None and quarantine_after < 1:
            raise ServeError(
                f"quarantine_after must be >= 1, got {quarantine_after}")
        crash_steps: frozenset[int] = frozenset()
        if crash_plan is not None:
            residual = tuple(f for f in crash_plan.faults
                             if f.kind != "server-crash")
            if residual:
                raise ServeError(
                    "crash_plan must contain only server-crash faults; "
                    "pass fabric faults via injector= instead (got "
                    f"{', '.join(f.label() for f in residual)})")
            crash_steps = frozenset(crash_plan.crash_steps())
        if crash_steps and journal is None:
            raise ServeError(
                "server-crash injection requires a write-ahead journal "
                "(pass journal=WriteAheadJournal())")
        self.machine = machine
        self.queue_capacity = queue_capacity
        self.max_batch_requests = max_batch_requests
        self.batching = batching
        self.caching = caching
        self.strategy = strategy
        self.twiddle_capacity = twiddle_capacity
        self.max_attempts = max_attempts
        self.backoff_messages = backoff_messages
        self.injector = injector
        self.journal = journal
        self.snapshot_every = snapshot_every
        self.degrade = degrade
        # quarantine_after implies verify-before-emit: a scoreboard
        # without probes would never see a detection.
        self.abft = abft or quarantine_after is not None
        self.quarantine_after = quarantine_after
        self.trace = trace if trace is not None else Trace()
        self.replica = replica
        self.plan_cache = PlanCache()
        self.twiddles = TwiddleLedger(max_tables=twiddle_capacity)
        self._batch_counter = batch_counter
        self._crash_steps = crash_steps
        self._clusters: dict[str, SimCluster] = {}
        self._fallback_clusters: dict[str, SimCluster] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        # One probe ledger serves every field's checker: probes are
        # keyed by (field, n, direction), so the residency is shared.
        self._abft_ledger = ProbeLedger() if self.abft else None
        self._abft_checkers: dict[str, AbftChecker] = {}
        self._scoreboard = (SdcScoreboard(quarantine_after=quarantine_after)
                            if quarantine_after is not None else None)
        self._fault_window: list[int] = []
        self._batch_id = 0
        # Journal/snapshot/recovery phases are pure fabric messaging,
        # whose price is field-independent; one memoized model keeps
        # the bookkeeping cheap and deterministic.
        self._overhead_model = CostModel(machine, field_by_name("Goldilocks"))

    # -- infrastructure ------------------------------------------------------

    def _cluster(self, field: PrimeField) -> SimCluster:
        """One shared cluster per field, all writing the server's trace."""
        cluster = self._clusters.get(field.name)
        if cluster is None:
            cluster = SimCluster(field, self.machine.gpu_count,
                                 trace=self.trace,
                                 injector=self.injector)
            # Under fault injection, verify every exchange with the
            # random-linear-probe checksums so silent in-flight
            # corruption surfaces as ShardCorruptionError and is
            # retried rather than served.
            cluster.checksum_exchanges = self.injector is not None
            self._clusters[field.name] = cluster
        return cluster

    def _fallback_cluster(self, field: PrimeField) -> SimCluster:
        """A one-GPU cluster per field for breaker-open dispatches.

        It shares the server's trace (its work is audited like any
        other) but never the injector: the ``replicate`` strategy on
        one GPU issues zero collectives, so no fabric fault can reach
        a degraded dispatch.
        """
        cluster = self._fallback_clusters.get(field.name)
        if cluster is None:
            cluster = SimCluster(field, 1, trace=self.trace)
            self._fallback_clusters[field.name] = cluster
        return cluster

    def _breaker(self, engine: str) -> CircuitBreaker:
        breaker = self._breakers.get(engine)
        if breaker is None:
            breaker = CircuitBreaker(engine, self.degrade)
            self._breakers[engine] = breaker
        return breaker

    def _abft_checker(self, field: PrimeField) -> AbftChecker:
        """One checker per field cluster, all sharing the probe ledger."""
        checker = self._abft_checkers.get(field.name)
        if checker is None:
            checker = AbftChecker(self._cluster(field),
                                  ledger=self._abft_ledger)
            self._abft_checkers[field.name] = checker
        return checker

    def _abft_verify_batch(self, field: PrimeField,
                           batch_inputs: list[list[int]],
                           outputs: list[list[int]], direction: str,
                           batch_id: int, steps: list[Step],
                           report: ServeReport) -> None:
        """Freivalds-check every lane of a primary dispatch.

        Each lane's output is verified against its input with the
        cached probe for its shape (``out_layout=None``: a serve lane
        is a whole logical vector, so device attribution is
        meaningless).  A mismatch tallies the detection, feeds the SDC
        scoreboard (subject = the engine key, i.e. the field name), and
        raises :class:`ShardCorruptionError` into the retry/fallback
        machinery — a corrupted output can never be emitted.  The
        fallback engine is not verified: its one-GPU replicate cluster
        carries no injector, which is the point of diverting to it.
        """
        checker = self._abft_checker(field)
        inverse = direction == "inverse"
        for lane, (vec_in, vec_out) in enumerate(zip(batch_inputs,
                                                     outputs)):
            verdict = checker.verify_leg(
                inputs=vec_in, outputs=vec_out, n=len(vec_in),
                inverse=inverse, out_layout=None,
                detail=f"serve batch={batch_id} lane={lane}")
            steps.extend(verdict.steps)
            report.abft_probes += 1
            if verdict.ok:
                continue
            report.abft_detections += len(verdict.detections)
            report.abft_reexecutions += 1
            checker.record_reexecution(
                detail=f"serve batch={batch_id} lane={lane}")
            if self._scoreboard is not None:
                verb = self._scoreboard.record_detection(field.name)
                if verb == "quarantine":
                    report.quarantines += 1
                    self._serve_event(
                        "serve-quarantine",
                        f"engine={field.name} action=quarantine "
                        f"detections="
                        f"{self._scoreboard.detections(field.name)} "
                        f"batch={batch_id}")
            raise ShardCorruptionError(
                f"abft probe mismatch on batch {batch_id} lane {lane} "
                f"({field.name}, n={len(vec_in)})")

    def _serve_event(self, kind: str, detail: str) -> None:
        if self.replica is not None:
            detail = f"{detail} replica={self.replica}"
        self.trace.record(TraceEvent(kind=kind, level="serve",
                                     detail=detail))

    def _next_batch_id(self) -> int:
        if self._batch_counter is not None:
            return self._batch_counter.next()
        batch_id = self._batch_id
        self._batch_id += 1
        return batch_id

    def _peek_batch_id(self) -> int:
        if self._batch_counter is not None:
            return self._batch_counter.peek
        return self._batch_id

    def _overhead_seconds(self, messages: int) -> float:
        return self._overhead_model.estimate(
            [Phase(name="serve-overhead", messages=messages)]).total_s

    def _journal_append(self, kind: str, payload: dict,
                        clock: VirtualClock, report: ServeReport) -> None:
        """WAL hook: append, price, trace, and maybe crash.

        The injected ``server-crash`` fires the moment the record whose
        sequence number it names has been appended — i.e. the journal
        always holds the record, the in-memory state change it guards
        may or may not have completed, and recovery must (and does)
        tolerate both.
        """
        if self.journal is None:
            return
        record = self.journal.append(kind, payload, t_s=clock.now_s)
        report.journal_records += 1
        report.journal_s += self._overhead_seconds(JOURNAL_MESSAGES)
        self._serve_event(
            "serve-journal", f"seq={record.seq} kind={kind}")
        if record.seq in self._crash_steps:
            raise ServerCrashError(
                f"injected server-crash at journal seq {record.seq} "
                f"({kind} record)", crash_seq=record.seq, report=report)

    # -- the loop ------------------------------------------------------------

    def serve(self, requests: list[ProofRequest],
              resume: ResumeState | None = None) -> ServeReport:
        """Run the workload to completion; returns the full account.

        ``resume`` is supplied by
        :class:`~repro.serve.durability.RecoveryManager` to continue a
        crashed run: requests the previous incarnation already handled
        (emitted, rejected, or shed) are skipped, orphans are
        re-admitted exactly once, and the clock resumes at the crash
        time plus the priced recovery downtime.
        """
        ids = [r.request_id for r in requests]
        if len(set(ids)) != len(ids):
            raise ServeError("workload has duplicate request ids")
        handled: set[int] = set(resume.handled_ids) if resume else set()
        requeued_ids = {r.request_id for r in resume.queued} \
            if resume else set()
        pending = sorted(
            (r for r in requests
             if r.request_id not in handled
             and r.request_id not in requeued_ids),
            key=lambda r: (r.arrival_s, r.request_id))
        clock = VirtualClock(resume.clock_s if resume else 0.0)
        queue = AdmissionQueue(self.queue_capacity)
        report = ServeReport(machine_name=self.machine.name,
                             offered=len(pending) + len(requeued_ids))
        if resume is not None:
            self._begin_recovery(resume, clock, queue, report)
        next_arrival = 0

        while True:
            # 1. admit everything that has arrived by now.
            while (next_arrival < len(pending)
                   and pending[next_arrival].arrival_s <= clock.now_s):
                self._admit(pending[next_arrival], queue, clock, report,
                            handled)
                next_arrival += 1

            # 1b. degraded mode: shed the least-urgent backlog when the
            # fabric is faulting faster than retries absorb.
            if self.degrade is not None and not queue.empty:
                self._maybe_shed(queue, clock, report, handled)

            if queue.empty:
                if next_arrival >= len(pending):
                    break  # drained: nothing queued, nothing to come
                clock.advance_to(pending[next_arrival].arrival_s)
                continue

            # 2. dispatch the next group; it completes after its
            # modeled duration.
            inflight = self._begin_next(queue, clock, report)
            clock.advance_by(inflight.duration_s)
            self._finish(inflight, queue, clock, report, handled)

        report.makespan_s = clock.now_s
        return report

    def _admit(self, request: ProofRequest, queue: AdmissionQueue,
               clock: VirtualClock, report: ServeReport,
               handled: set[int]) -> None:
        """Queue one arrival and journal it, or refuse it when full."""
        if queue.offer(request):
            report.accepted += 1
            self._serve_event(
                "serve-accept",
                f"request={request.request_id} "
                f"queue={len(queue)}/{queue.capacity}")
            self._journal_append(
                "admit", {"request": request.to_record()}, clock, report)
            return
        report.rejected += 1
        report.note_rejected(request.tenant_id)
        report.rejection_s += self._rejection_seconds(request)
        handled.add(request.request_id)
        self._serve_event(
            "serve-reject",
            f"request={request.request_id} queue-full "
            f"capacity={queue.capacity}")
        self._journal_append(
            "reject",
            {"request_id": request.request_id, "reason": "queue-full"},
            clock, report)

    def _rejection_seconds(self, request: ProofRequest) -> float:
        model = CostModel(self.machine, request.field)
        return model.estimate([Phase(name="serve-reject",
                                     messages=REJECT_MESSAGES)]).total_s

    # -- durability ----------------------------------------------------------

    def _begin_recovery(self, resume: ResumeState, clock: VirtualClock,
                        queue: AdmissionQueue,
                        report: ServeReport) -> None:
        """Resume a crashed run: warm caches, price downtime, requeue."""
        report.recoveries = 1
        report.recovered_requests = len(resume.queued)
        report.replayed_records = resume.replayed_records
        self._batch_id = max(self._batch_id, resume.next_batch_id)
        if self._batch_counter is not None:
            self._batch_counter.advance_to(resume.next_batch_id)
        # Warm the caches the snapshot recorded.  Entries are pure
        # functions of their keys, so re-materializing them restores
        # the crashed server's cache state exactly; the restore itself
        # is priced below as part of the recovery messages, not as
        # per-dispatch planning work.
        for machine_name, field_name, log_size, strategy \
                in resume.plan_keys:
            if machine_name == self.machine.name:
                self.plan_cache.lookup(
                    self.machine, field_by_name(field_name),
                    int(log_size), strategy)
        for field_name, n, direction in resume.twiddle_shapes:
            self.twiddles.prepare(field_by_name(field_name), int(n),
                                  direction)
        messages = (RECOVER_MESSAGES
                    + REPLAY_MESSAGES_PER_RECORD * resume.replayed_records)
        downtime = self._overhead_seconds(messages)
        report.recovery_s += downtime
        clock.advance_by(downtime)
        self.trace.record(TraceEvent(
            kind="fault", level="resilience",
            detail=f"server-crash@{resume.crash_seq}"))
        self._serve_event(
            "serve-recover",
            f"journal-seq={resume.crash_seq} "
            f"replayed={resume.replayed_records} "
            f"requeued={len(resume.queued)}")
        queue.restore(resume.queued)
        for request in resume.queued:
            self._serve_event(
                "serve-accept",
                f"request={request.request_id} recovered "
                f"queue={len(queue)}/{queue.capacity}")
        self._journal_append(
            "recover",
            {"crash_seq": resume.crash_seq,
             "replayed": resume.replayed_records,
             "requeued": [r.request_id for r in resume.queued]},
            clock, report)

    def _maybe_snapshot(self, queue: AdmissionQueue, clock: VirtualClock,
                        report: ServeReport, handled: set[int]) -> None:
        """Checkpoint at a quiescent point (between dispatches)."""
        if self.journal is None \
                or self.journal.records_since_snapshot < self.snapshot_every:
            return
        snapshot = ServerSnapshot(
            t_s=clock.now_s,
            queued=tuple(r.to_record() for r in queue.snapshot_items()),
            handled_ids=tuple(sorted(handled)),
            next_batch_id=self._peek_batch_id(),
            plan_keys=self.plan_cache.keys(),
            twiddle_shapes=self.twiddles.shapes())
        report.snapshots += 1
        report.journal_s += self._overhead_seconds(SNAPSHOT_MESSAGES)
        self._serve_event(
            "serve-snapshot",
            f"queued={len(queue)} handled={len(handled)} "
            f"next-batch={self._peek_batch_id()}")
        self._journal_append("snapshot", snapshot.to_payload(), clock,
                             report)

    # -- degradation ---------------------------------------------------------

    def _fault_rate(self) -> float:
        if not self._fault_window:
            return 0.0
        return sum(self._fault_window) / len(self._fault_window)

    def _note_dispatch_outcome(self, failures: int) -> None:
        if self.degrade is None:
            return
        self._fault_window.append(1 if failures else 0)
        excess = len(self._fault_window) - self.degrade.window
        if excess > 0:
            del self._fault_window[:excess]

    def _maybe_shed(self, queue: AdmissionQueue, clock: VirtualClock,
                    report: ServeReport, handled: set[int]) -> None:
        policy = self.degrade
        rate = self._fault_rate()
        high_water = int(policy.shed_queue_fraction * queue.capacity)
        high_water = max(1, high_water)
        if rate < policy.shed_fault_rate or len(queue) <= high_water:
            return
        for request in queue.drop_worst(len(queue) - high_water):
            report.shed += 1
            report.note_shed(request.tenant_id)
            report.shed_s += self._rejection_seconds(request)
            handled.add(request.request_id)
            self._serve_event(
                "serve-shed",
                f"request={request.request_id} "
                f"priority={request.priority} fault-rate={rate:.2f} "
                f"queue={len(queue)}/{queue.capacity}")
            self._journal_append(
                "shed",
                {"request_id": request.request_id,
                 "fault_rate": round(rate, 4)}, clock, report)

    # -- dispatch ------------------------------------------------------------

    def _begin_next(self, queue: AdmissionQueue, clock: VirtualClock,
                    report: ServeReport) -> InflightBatch:
        """Take the next group (EDF head + compatible) and begin it."""
        group = queue.take_batch(self.max_batch_requests,
                                 batching=self.batching)
        return self._dispatch_begin(group, clock, report)

    def _finish(self, inflight: InflightBatch, queue: AdmissionQueue,
                clock: VirtualClock, report: ServeReport,
                handled: set[int]) -> None:
        """Commit a batch at its completion time, then maybe checkpoint."""
        self._dispatch_commit(inflight, clock, report, handled)
        self._maybe_snapshot(queue, clock, report, handled)

    def _dispatch_begin(self, group: list[ProofRequest],
                        clock: VirtualClock,
                        report: ServeReport) -> InflightBatch:
        head = group[0]
        field = head.field
        n = head.n
        vectors_per_request = [r.batch for r in group]
        total_vectors = sum(vectors_per_request)
        batch_id = self._next_batch_id()

        breaker = self._breaker(field.name) if self.degrade is not None \
            else None
        probing = False
        use_fallback = False
        if breaker is not None:
            before = breaker.state
            state = breaker.poll(clock.now_s)
            if state != before:
                self._serve_event(
                    "serve-breaker",
                    f"engine={field.name} {before}->{state} "
                    f"batch={batch_id}")
            if state == "open":
                use_fallback = True
            elif state == "half-open":
                probing = True
                report.breaker_probes += 1

        # SDC quarantine routing: a quarantined engine key is diverted
        # straight to the fallback (the diverted dispatch doubles as its
        # cool-down tick into probation); a probation engine runs one
        # verified probe dispatch on the primary, no retries.
        sdc_probing = False
        if self._scoreboard is not None and not use_fallback:
            sdc_state = self._scoreboard.state(field.name)
            if sdc_state == "quarantined":
                use_fallback = True
                verb = self._scoreboard.record_clean(field.name)
                self._serve_event(
                    "serve-quarantine",
                    f"engine={field.name} action=divert state="
                    f"{self._scoreboard.state(field.name)} "
                    f"batch={batch_id}")
                if verb == "rejoin":
                    report.quarantine_rejoins += 1
                    self._serve_event(
                        "serve-quarantine",
                        f"engine={field.name} action=rejoin "
                        f"batch={batch_id}")
            elif sdc_state == "probation":
                sdc_probing = True

        # Fresh caches per dispatch when caching is disabled, so the
        # planning and twiddle misses recur honestly.
        plan_cache = self.plan_cache if self.caching else PlanCache()
        twiddles = self.twiddles if self.caching \
            else TwiddleLedger(max_tables=self.twiddle_capacity)

        entry = None
        strategy_label = "single-gpu"
        if not use_fallback:
            entry, plan_misses = plan_cache.choose(
                self.machine, field, head.log_size, total_vectors,
                force=self.strategy)
            strategy_label = entry.strategy
            plan_hits = len(("replicate", "split")) - plan_misses
            report.plan_hits += plan_hits
            report.plan_misses += plan_misses
            self._serve_event(
                "serve-cache",
                f"batch={batch_id} plan-"
                f"{'hit' if plan_misses == 0 else 'miss'} "
                f"strategy={entry.strategy}")
        else:
            plan_misses = 0

        twiddle_phase, twiddle_hit = twiddles.prepare(
            field, n, head.direction)
        if self.caching:
            stats = twiddles.stats()
            report.twiddle_hits = stats["hits"]
            report.twiddle_misses = stats["misses"]
            report.twiddle_evictions = stats["evictions"]
        else:
            report.twiddle_misses += twiddles.stats()["misses"]
        self._serve_event(
            "serve-cache",
            f"batch={batch_id} twiddle-"
            f"{'hit' if twiddle_hit else 'miss'} "
            f"n={n} direction={head.direction}")

        # Assemble the overhead phases this dispatch owes.
        steps: list[Step] = [Phase(name="serve-dispatch-overhead",
                                   messages=DISPATCH_MESSAGES)]
        if plan_misses:
            steps.append(Phase(name="serve-plan-miss",
                               messages=plan_misses * PLAN_MISS_MESSAGES))
        if twiddle_phase is not None:
            steps.append(twiddle_phase)

        self._serve_event(
            "serve-dispatch",
            f"batch={batch_id} "
            f"ids={','.join(str(r.request_id) for r in group)} "
            f"requests={len(group)} "
            f"vectors={total_vectors} strategy={strategy_label} "
            f"n={n} field={field.name}")

        # WAL: intent is durable before the engines run, so a crash
        # mid-batch leaves an orphaned dispatch record the recovery
        # replay re-admits.
        self._journal_append(
            "dispatch",
            {"batch_id": batch_id,
             "request_ids": [r.request_id for r in group],
             "strategy": strategy_label}, clock, report)

        # 3. run, retrying transient faults from the host-side inputs.
        batch_inputs: list[list[int]] = []
        for request in group:
            batch_inputs.extend(request.vectors())
        outputs: list[list[int]] | None = None
        attempts = 0
        failures = 0
        max_attempts = 1 if (probing or sdc_probing) else self.max_attempts
        retryable = _RETRYABLE + (DeviceLostError,) \
            if self.degrade is not None else _RETRYABLE
        inverse = head.direction == "inverse"
        if not use_fallback:
            engine = BatchedDistributedNTT(
                self._cluster(field), strategy=entry.strategy,
                tile=entry.tile)
            profile = (engine.inverse_profile if inverse
                       else engine.forward_profile)(n, total_vectors)
            steps.extend(profile)
            while outputs is None:
                attempts += 1
                try:
                    outputs = (engine.inverse if inverse
                               else engine.forward)(batch_inputs)
                    if self.abft:
                        # Verify-before-emit: every lane is Freivalds-
                        # checked against its input; a mismatch raises
                        # into the retry/fallback machinery below, so a
                        # corrupted output can never reach a client.
                        self._abft_verify_batch(
                            field, batch_inputs, outputs, head.direction,
                            batch_id, steps, report)
                except retryable as error:
                    outputs = None
                    failures += 1
                    report.retries += 1
                    # The wasted attempt is charged in full (deliberate
                    # upper bound), plus an exponential backoff wait.
                    backoff = self.backoff_messages * (1 << (attempts - 1))
                    if backoff:
                        steps.append(Phase(name="serve-retry-backoff",
                                           messages=backoff))
                    if breaker is not None:
                        before = breaker.state
                        if breaker.record_failure(clock.now_s):
                            report.breaker_trips += 1
                            self._serve_event(
                                "serve-breaker",
                                f"engine={field.name} {before}->open "
                                f"batch={batch_id} "
                                f"failures={breaker.failure_streak}")
                    diverting = self.degrade is not None and (
                        isinstance(error, DeviceLostError)
                        or (breaker is not None
                            and breaker.state == "open")
                        or attempts >= max_attempts)
                    if (self._scoreboard is not None
                            and self._scoreboard.state(field.name)
                            != "healthy"):
                        # The scoreboard quarantined this engine (now or
                        # earlier): finish the batch on the fallback
                        # instead of burning retries on a mercurial
                        # device.
                        diverting = True
                    detail = (f"batch={batch_id} attempt={attempts} "
                              f"{type(error).__name__}")
                    if diverting:
                        detail += " -> single-gpu-fallback"
                    self.trace.record(TraceEvent(
                        kind="retry", level="resilience", detail=detail))
                    if diverting:
                        use_fallback = True
                        break
                    if attempts >= max_attempts:
                        exhausted = ServeError(
                            f"batch {batch_id} failed after {attempts} "
                            f"attempts: {error}")
                        exhausted.report = report
                        raise exhausted from error
                    steps.extend(profile)
            if breaker is not None and outputs is not None:
                before = breaker.state
                if breaker.record_success():
                    self._serve_event(
                        "serve-breaker",
                        f"engine={field.name} {before}->closed "
                        f"batch={batch_id}")
            if self._scoreboard is not None and outputs is not None:
                # A fully verified primary dispatch is one clean probe
                # toward probationary rejoin (no-op while healthy).
                verb = self._scoreboard.record_clean(field.name)
                if verb == "rejoin":
                    report.quarantine_rejoins += 1
                    self._serve_event(
                        "serve-quarantine",
                        f"engine={field.name} action=rejoin "
                        f"batch={batch_id}")

        if outputs is None:
            # Breaker-open / probe-failed / retry-exhausted: run on the
            # fallback cluster.  Replicate on one GPU issues zero
            # collectives, so the faulty fabric cannot touch it; the
            # full (slower) profile is charged honestly.
            strategy_label = "single-gpu"
            fallback = BatchedDistributedNTT(
                self._fallback_cluster(field), strategy="replicate")
            steps.extend((fallback.inverse_profile if inverse
                          else fallback.forward_profile)(n, total_vectors))
            attempts += 1
            outputs = (fallback.inverse if inverse
                       else fallback.forward)(batch_inputs)
            report.fallback_dispatches += 1
            self._serve_event(
                "serve-breaker",
                f"engine={field.name} fallback batch={batch_id} "
                f"state={breaker.state if breaker else 'n/a'}")

        self._note_dispatch_outcome(failures)

        duration = CostModel(self.machine, field).estimate(steps).total_s
        return InflightBatch(
            group=group, batch_id=batch_id,
            strategy_label=strategy_label, total_vectors=total_vectors,
            duration_s=duration, attempts=attempts, steps=tuple(steps),
            outputs=outputs, start_s=clock.now_s)

    def _dispatch_commit(self, inflight: InflightBatch,
                         clock: VirtualClock, report: ServeReport,
                         handled: set[int]) -> None:
        """Emit an in-flight batch's results at its completion time."""
        group = inflight.group
        head = group[0]
        batch_id = inflight.batch_id
        strategy_label = inflight.strategy_label
        report.dispatches.append(DispatchRecord(
            batch_id=batch_id, field_name=head.field_name,
            log_size=head.log_size, direction=head.direction,
            strategy=strategy_label, requests=len(group),
            vectors=inflight.total_vectors,
            duration_s=inflight.duration_s,
            attempts=inflight.attempts, steps=inflight.steps,
            engine="single-gpu" if strategy_label == "single-gpu"
            else "multi-gpu"))

        # 4. slice outputs back to their requests and record results.
        # Each result is appended to the report *before* its emit
        # record is journaled, so a crash between the two leaves the
        # client-visible result set and the journal in agreement.
        cursor = 0
        for request in group:
            lanes = inflight.outputs[cursor:cursor + request.batch]
            cursor += request.batch
            result = RequestResult(
                request=request,
                outputs=tuple(tuple(lane) for lane in lanes),
                start_s=inflight.start_s, finish_s=clock.now_s,
                batch_id=batch_id, strategy=strategy_label,
                shared_batch=len(group))
            report.results.append(result)
            report.completed += 1
            handled.add(request.request_id)
            if not result.deadline_met:
                report.deadline_misses += 1
            self._journal_append(
                "emit",
                {"request_id": request.request_id,
                 "batch_id": batch_id,
                 "digest": output_digest(result.outputs)},
                clock, report)
        self._serve_event(
            "serve-complete",
            f"batch={batch_id} finish={clock.now_s:.6e} "
            f"attempts={inflight.attempts}")
        self._journal_append("complete", {"batch_id": batch_id},
                             clock, report)
