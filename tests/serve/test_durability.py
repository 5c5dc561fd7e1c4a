"""Crash consistency: journal, snapshots, recovery, exactly-once.

The acceptance bar for the durability layer is strict: for every crash
point in a grid of journal sequence numbers, across more than one
workload shape, the crash-recover-resume run must merge to outputs
**bit-identical** to the uninterrupted run, lose no request, duplicate
no request, and leave a recovered trace the race detector finds nothing
wrong with.
"""

import json

import pytest

from repro.analysis import check_trace
from repro.errors import JournalError, ServeError, ServerCrashError
from repro.serve import (
    ProofServer, RecoveryManager, WorkloadSpec, WriteAheadJournal,
    generate_workload, serve_durably,
)
from repro.serve.durability import JournalRecord
from repro.sim.faults import FaultPlan

WORKLOADS = {
    "staggered-mixed": WorkloadSpec(
        requests=12, log_sizes=(8, 9), mean_interarrival_s=1e-4,
        deadline_s=1.0, priority_levels=2, seed=3),
    "burst-batched": WorkloadSpec(
        requests=18, log_sizes=(8,), batch=2, deadline_s=1.0, seed=7),
}

#: Journal sequence numbers the chaos grid kills the server at; chosen
#: to land on different record kinds (admissions, dispatches, emits,
#: snapshots) across both workloads.
CRASH_POINTS = (1, 3, 5, 9, 14, 20, 27, 35)


def crash_plan(*steps):
    return FaultPlan.from_specs([f"server-crash@{s}" for s in steps])


def run_baseline(spec):
    requests = generate_workload(spec)
    server = ProofServer(journal=WriteAheadJournal(), snapshot_every=4)
    report = server.serve(requests)
    outputs = {r.request.request_id: r.outputs for r in report.results}
    return requests, report, outputs, server


class TestChaosGrid:
    @pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
    @pytest.mark.parametrize("crash_seq", CRASH_POINTS)
    def test_recovery_is_bit_identical(self, workload_name, crash_seq):
        spec = WORKLOADS[workload_name]
        requests, baseline, expected, _ = run_baseline(spec)
        assert crash_seq < baseline.journal_records, (
            "crash point beyond the journal; widen the workload")

        journal = WriteAheadJournal()
        plan = crash_plan(crash_seq)
        outcome = serve_durably(
            requests,
            lambda: ProofServer(journal=journal, snapshot_every=4,
                                crash_plan=plan))

        assert outcome.crashed and outcome.recoveries == 1
        got_ids = [r.request.request_id for r in outcome.results]
        assert got_ids == sorted(expected), (
            "a request was lost or duplicated across the crash")
        for result in outcome.results:
            assert result.outputs == expected[result.request.request_id]
        assert check_trace(outcome.server.trace) == []

    def test_multi_crash_terminates_and_stays_exact(self):
        spec = WORKLOADS["staggered-mixed"]
        requests, _, expected, _ = run_baseline(spec)
        journal = WriteAheadJournal()
        plan = crash_plan(2, 11, 25, 40)
        outcome = serve_durably(
            requests,
            lambda: ProofServer(journal=journal, snapshot_every=4,
                                crash_plan=plan))
        assert outcome.recoveries >= 3
        assert {r.request.request_id: r.outputs
                for r in outcome.results} == expected
        assert check_trace(outcome.server.trace) == []

    def test_back_to_back_crash_points_hit_the_recover_record(self):
        # The second crash fires on the very record the first recovery
        # appends, so the replay must handle a tail ending in "recover".
        spec = WORKLOADS["burst-batched"]
        requests, _, expected, _ = run_baseline(spec)
        journal = WriteAheadJournal()
        outcome = serve_durably(
            requests,
            lambda: ProofServer(journal=journal, snapshot_every=4,
                                crash_plan=crash_plan(6, 7)))
        assert outcome.recoveries == 2
        assert {r.request.request_id: r.outputs
                for r in outcome.results} == expected

    def test_every_crash_is_answered_in_the_recovered_trace(self):
        spec = WORKLOADS["staggered-mixed"]
        requests, _, _, _ = run_baseline(spec)
        journal = WriteAheadJournal()
        outcome = serve_durably(
            requests,
            lambda: ProofServer(journal=journal, snapshot_every=4,
                                crash_plan=crash_plan(9)))
        trace = outcome.server.trace
        crashes = [e for e in trace.events if e.kind == "fault"
                   and e.detail.startswith("server-crash")]
        recovers = [e for e in trace.events if e.kind == "serve-recover"]
        assert len(crashes) == 1 and len(recovers) == 1


class TestPricing:
    def test_journal_is_off_the_critical_path(self):
        # Group commit: journaling prices fabric work into journal_s
        # but must not move the virtual clock, so the journaled run's
        # makespan and outputs equal the bare run's exactly.
        spec = WORKLOADS["staggered-mixed"]
        requests = generate_workload(spec)
        bare = ProofServer().serve(requests)
        journaled = ProofServer(journal=WriteAheadJournal(),
                                snapshot_every=4).serve(requests)
        assert journaled.makespan_s == bare.makespan_s
        assert [r.outputs for r in journaled.results] \
            == [r.outputs for r in bare.results]
        assert journaled.journal_records > 0
        assert journaled.journal_s > 0.0
        assert journaled.snapshots > 0

    def test_journal_and_recovery_fold_into_plan_cost(self):
        spec = WORKLOADS["staggered-mixed"]
        requests = generate_workload(spec)
        bare = ProofServer().serve(requests)
        journal = WriteAheadJournal()
        outcome = serve_durably(
            requests,
            lambda: ProofServer(journal=journal, snapshot_every=4,
                                crash_plan=crash_plan(10)))
        server = outcome.server
        final = outcome.report
        assert final.recovery_s > 0.0
        assert final.replayed_records > 0
        cost = final.plan_cost(server.machine)
        assert cost.total_s > 0.0
        # The recovered leg re-ran real work *and* paid downtime, so
        # summed across legs the durable run costs more than the bare
        # run of the same workload.
        total = sum(leg.plan_cost(server.machine).total_s
                    for leg in outcome.legs)
        assert total > bare.plan_cost(server.machine).total_s

    def test_recovery_downtime_advances_the_clock(self):
        spec = WORKLOADS["burst-batched"]
        requests = generate_workload(spec)
        journal = WriteAheadJournal()
        outcome = serve_durably(
            requests,
            lambda: ProofServer(journal=journal, snapshot_every=4,
                                crash_plan=crash_plan(8)))
        crash_t = journal.records[8].t_s
        assert outcome.report.makespan_s \
            >= crash_t + outcome.report.recovery_s


class TestJournal:
    def test_unknown_kind_rejected(self):
        with pytest.raises(JournalError, match="unknown journal"):
            WriteAheadJournal().append("frobnicate", {}, t_s=0.0)

    def test_unserializable_payload_rejected(self):
        with pytest.raises(JournalError, match="JSON"):
            WriteAheadJournal().append("admit", {"bad": object()},
                                       t_s=0.0)

    def test_verify_detects_tampered_payload(self):
        journal = WriteAheadJournal()
        record = journal.append("admit", {"request_id": 1}, t_s=0.0)
        journal.records[0] = JournalRecord(
            seq=record.seq, t_s=record.t_s, kind=record.kind,
            payload={"request_id": 2}, checksum=record.checksum)
        with pytest.raises(JournalError, match="checksum"):
            journal.verify()

    def test_verify_detects_sequence_gap(self):
        journal = WriteAheadJournal()
        journal.append("admit", {"request_id": 1}, t_s=0.0)
        journal.append("admit", {"request_id": 2}, t_s=0.0)
        del journal.records[0]
        with pytest.raises(JournalError, match="gap"):
            journal.verify()

    def test_json_round_trip(self):
        journal = WriteAheadJournal()
        journal.append("admit", {"request_id": 1}, t_s=0.0)
        journal.append("snapshot", {"t_s": 0.0, "queued": [],
                                    "handled_ids": [], "next_batch_id": 0,
                                    "plan_keys": [],
                                    "twiddle_shapes": []}, t_s=1.5e-4)
        clone = WriteAheadJournal.from_json(journal.to_json())
        assert clone.records == journal.records
        assert clone.records_since_snapshot \
            == journal.records_since_snapshot

    def test_from_json_rejects_garbage(self):
        for text in ("nonsense", "[]", json.dumps({"records": "nope"}),
                     json.dumps({"records": [{"seq": 0}]})):
            with pytest.raises(JournalError):
                WriteAheadJournal.from_json(text)

    def test_snapshot_cadence(self):
        requests = generate_workload(WORKLOADS["staggered-mixed"])
        journal = WriteAheadJournal()
        report = ProofServer(journal=journal,
                             snapshot_every=4).serve(requests)
        assert report.snapshots \
            == sum(1 for r in journal if r.kind == "snapshot")
        assert journal.latest_snapshot() is not None
        assert journal.records_since_snapshot < len(journal)


class TestRecoveryManager:
    def test_empty_journal_rejected(self):
        manager = RecoveryManager(WriteAheadJournal(), ProofServer)
        with pytest.raises(JournalError, match="empty"):
            manager.resume_state()

    def test_factory_must_share_the_journal(self):
        requests = generate_workload(WORKLOADS["burst-batched"])
        journal = WriteAheadJournal()
        with pytest.raises(ServerCrashError):
            ProofServer(journal=journal,
                        crash_plan=crash_plan(3)).serve(requests)
        manager = RecoveryManager(
            journal, lambda: ProofServer(journal=WriteAheadJournal()))
        with pytest.raises(ServeError, match="same"):
            manager.recover(requests)

    def test_serve_durably_requires_a_journal(self):
        requests = generate_workload(WORKLOADS["burst-batched"])
        with pytest.raises(ServeError, match="journal"):
            serve_durably(requests, ProofServer)

    def test_crash_error_carries_partial_report(self):
        requests = generate_workload(WORKLOADS["staggered-mixed"])
        with pytest.raises(ServerCrashError) as exc:
            ProofServer(journal=WriteAheadJournal(), snapshot_every=4,
                        crash_plan=crash_plan(20)).serve(requests)
        crash = exc.value
        assert crash.crash_seq == 20
        assert crash.report is not None
        # Crash-order invariant: results land in the report before
        # their emit record, so the partial report's results are
        # exactly the journaled emits.
        emitted = {r.request.request_id for r in crash.report.results}
        assert len(emitted) == crash.report.completed

    def test_crash_requires_journal(self):
        with pytest.raises(ServeError, match="journal"):
            ProofServer(crash_plan=crash_plan(1))

    def test_crash_plan_must_hold_only_crashes(self):
        plan = FaultPlan.from_specs(
            ["server-crash@1", "transient-comm@0"])
        with pytest.raises(ServeError, match="only server-crash"):
            ProofServer(journal=WriteAheadJournal(), crash_plan=plan)

    def test_snapshot_restores_cache_keys(self):
        spec = WORKLOADS["staggered-mixed"]
        requests = generate_workload(spec)
        journal = WriteAheadJournal()
        outcome = serve_durably(
            requests,
            lambda: ProofServer(journal=journal, snapshot_every=4,
                                crash_plan=crash_plan(30)))
        snapshot = journal.latest_snapshot()
        assert snapshot is not None
        server = outcome.server
        for machine, field, log_size, direction, strategy \
                in snapshot.payload["plan_keys"]:
            if machine == server.machine.name:
                assert (machine, field, log_size, direction, strategy) \
                    in server.plan_cache.keys()
