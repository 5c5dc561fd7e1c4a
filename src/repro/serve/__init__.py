"""Proof-serving layer: deterministic request scheduling and batching.

The subsystem the ZK-prover story needs on top of raw transforms: a
server that accepts a stream of NTT requests, coalesces compatible ones
into cross-request batches, reuses plans and twiddle tables across
requests, and prices every decision — admission, planning, staging,
retries — in the same analytic cost model as the engines themselves.

Entry points:

* :class:`ProofServer` — the scheduler (`serve(requests) -> ServeReport`);
* :func:`generate_workload` / :func:`workload_from_json` — workloads;
* :class:`ServeReport` — latency percentiles, batching and cache
  statistics, and cost-model folding for a completed run;
* :class:`WriteAheadJournal` / :class:`RecoveryManager` /
  :func:`serve_durably` — crash-consistent serving (see
  :mod:`repro.serve.durability`);
* :class:`DegradePolicy` / :class:`CircuitBreaker` — graceful
  degradation under sustained faults (see :mod:`repro.serve.degrade`);
* :class:`FleetServer` / :class:`FleetPolicy` / :class:`FleetReport` —
  a replicated fleet with failure detection, journaled failover, work
  stealing, and per-tenant QoS (see :mod:`repro.serve.fleet` and
  :mod:`repro.serve.qos`).
"""

from repro.runtime.clock import VirtualClock
from repro.serve.cache import (
    PLAN_MISS_MESSAGES, STRATEGIES, PlanCache, PlanEntry, TwiddleLedger,
)
from repro.serve.degrade import BREAKER_STATES, CircuitBreaker, DegradePolicy
from repro.serve.durability import (
    JOURNAL_KINDS, JOURNAL_MESSAGES, RECOVER_MESSAGES,
    REPLAY_MESSAGES_PER_RECORD, SNAPSHOT_MESSAGES, JournalRecord,
    RecoveryManager, RecoveryOutcome, ResumeState, ServerSnapshot,
    WriteAheadJournal, output_digest, replay_journal, serve_durably,
)
from repro.serve.fleet import (
    FAILOVER_MESSAGES, HEARTBEAT_MESSAGES, ROUTE_MESSAGES,
    STEAL_MESSAGES, ConsistentHashRouter, FleetPolicy, FleetReport,
    FleetServer,
)
from repro.serve.qos import WeightedFairQueue
from repro.serve.queue import AdmissionQueue
from repro.serve.report import DispatchRecord, ServeReport, percentile
from repro.serve.request import DIRECTIONS, ProofRequest, RequestResult
from repro.serve.scheduler import (
    DISPATCH_MESSAGES, REJECT_MESSAGES, ProofServer,
)
from repro.serve.workload import (
    WorkloadSpec, generate_workload, iter_workload, workload_from_json,
    workload_to_json,
)

__all__ = [
    "BREAKER_STATES", "DIRECTIONS", "DISPATCH_MESSAGES",
    "FAILOVER_MESSAGES", "HEARTBEAT_MESSAGES", "JOURNAL_KINDS",
    "JOURNAL_MESSAGES", "PLAN_MISS_MESSAGES", "RECOVER_MESSAGES",
    "REJECT_MESSAGES", "REPLAY_MESSAGES_PER_RECORD", "ROUTE_MESSAGES",
    "SNAPSHOT_MESSAGES", "STEAL_MESSAGES", "STRATEGIES",
    "AdmissionQueue", "CircuitBreaker", "ConsistentHashRouter",
    "DegradePolicy", "DispatchRecord", "FleetPolicy", "FleetReport",
    "FleetServer", "JournalRecord", "PlanCache", "PlanEntry",
    "ProofRequest", "ProofServer", "RecoveryManager", "RecoveryOutcome",
    "RequestResult", "ResumeState", "ServeReport", "ServerSnapshot",
    "TwiddleLedger", "VirtualClock", "WeightedFairQueue", "WorkloadSpec",
    "WriteAheadJournal", "generate_workload", "iter_workload",
    "output_digest", "percentile", "replay_journal", "serve_durably",
    "workload_from_json", "workload_to_json",
]
