"""Plan verifier: clean schedules pass, every seeded bug is caught."""

import pytest

from repro.analysis import analyze_plan, seed_bug, verify_schedule
from repro.analysis.plancheck import SEED_BUGS, _wait_cycles, check_cost
from repro.field import GOLDILOCKS
from repro.hw import machine_by_name
from repro.multigpu.schedule import (
    ablation_grid, build_pairwise_schedule, build_unintt_schedule,
)

EB = 8  # Goldilocks element bytes
MACHINE = machine_by_name("DGX-A100").with_gpu_count(4)


def checks_of(findings):
    return {finding.check for finding in findings}


class TestCleanSchedules:
    @pytest.mark.parametrize("label,options",
                             ablation_grid(), ids=lambda v: str(v))
    def test_unintt_grid_verifies(self, label, options):
        schedule = build_unintt_schedule(256, 4, EB, options)
        assert verify_schedule(schedule, machine=MACHINE) == []

    def test_pairwise_verifies(self):
        schedule = build_pairwise_schedule(256, 8, EB)
        assert verify_schedule(schedule) == []

    def test_cost_checks_clean(self):
        schedule = build_unintt_schedule(256, 4, EB)
        assert check_cost(MACHINE, GOLDILOCKS, 256,
                          schedule=schedule) == []


class TestSeededBugs:
    """Every fault :func:`seed_bug` injects must be detected."""

    def test_drop_transfer_caught_as_lost_and_stale_read(self):
        # The acceptance-criteria fixture: one dropped message must
        # produce BOTH a lost-transfer finding at the exchange and a
        # read-before-write at the op consuming the stale shard.
        schedule = seed_bug(build_unintt_schedule(256, 4, EB),
                            "drop-transfer")
        found = checks_of(verify_schedule(schedule))
        assert "plan.lost-transfer" in found
        assert "plan.read-before-write" in found

    def test_duplicate_transfer(self):
        schedule = seed_bug(build_unintt_schedule(256, 4, EB),
                            "duplicate-transfer")
        assert checks_of(verify_schedule(schedule)) == {
            "plan.duplicate-transfer"}

    def test_reorder_is_read_before_write(self):
        schedule = seed_bug(build_unintt_schedule(256, 4, EB), "reorder")
        findings = verify_schedule(schedule)
        assert checks_of(findings) == {"plan.read-before-write"}
        # The inverted dependency trips at the exchange AND downstream.
        assert len(findings) >= 2

    def test_wrong_level(self):
        schedule = seed_bug(build_unintt_schedule(256, 4, EB),
                            "wrong-level")
        assert "plan.level-mismatch" in checks_of(
            verify_schedule(schedule))

    def test_deadlock_cycle_reported(self):
        schedule = seed_bug(build_pairwise_schedule(256, 4, EB),
                            "deadlock")
        findings = verify_schedule(schedule)
        found = checks_of(findings)
        assert "plan.deadlock" in found
        # Nothing after the deadlocked stage may consume its output.
        assert "plan.read-before-write" in found
        cycle = [f for f in findings if f.check == "plan.deadlock"][0]
        assert "->" in cycle.message

    def test_deadlock_requires_a_pairwise_op(self):
        with pytest.raises(ValueError, match="no PairwiseOp"):
            seed_bug(build_unintt_schedule(256, 4, EB), "deadlock")

    def test_unknown_bug_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown seed bug"):
            seed_bug(build_unintt_schedule(256, 4, EB), "nope")

    def test_seeded_cost_mismatch(self):
        schedule = seed_bug(build_unintt_schedule(256, 4, EB),
                            "drop-transfer")
        assert "plan.cost-mismatch" in checks_of(
            check_cost(MACHINE, GOLDILOCKS, 256, schedule=schedule))


class TestWaitCycles:
    def test_involution_has_no_cycles(self):
        assert _wait_cycles((2, 3, 0, 1), 4) == []

    def test_self_partners_are_fine(self):
        assert _wait_cycles((0, 1, 2, 3), 4) == []

    def test_rotation_is_one_cycle(self):
        cycles = _wait_cycles((1, 2, 3, 0), 4)
        assert cycles == [(0, 1, 2, 3)]

    def test_stranded_chain_detected_by_verifier(self):
        # GPU 2 waits on 3 while 3 is its own partner: no cycle, still
        # a deadlock.
        from dataclasses import replace

        from repro.multigpu.schedule import PairwiseOp

        schedule = build_pairwise_schedule(256, 4, EB)
        ops = list(schedule.ops)
        index = next(i for i, op in enumerate(ops)
                     if isinstance(op, PairwiseOp))
        ops[index] = replace(ops[index], partner_of=(1, 0, 3, 3))
        findings = verify_schedule(schedule.with_ops(tuple(ops)))
        assert "plan.deadlock" in checks_of(findings)


class TestAnalyzePlan:
    def test_clean_run_returns_schedule_and_no_findings(self):
        schedule, findings = analyze_plan(256, 4, GOLDILOCKS,
                                          machine=MACHINE)
        assert schedule.num_gpus == 4
        assert findings == []

    def test_every_seed_bug_is_caught(self):
        for kind in SEED_BUGS:
            engine = "pairwise" if kind == "deadlock" else "unintt"
            _, findings = analyze_plan(256, 4, GOLDILOCKS, engine=engine,
                                       machine=MACHINE,
                                       seed_bugs=(kind,))
            assert findings, f"seed bug {kind!r} went undetected"

    @pytest.mark.parametrize("engine", ["unintt", "pairwise", "baseline"])
    def test_every_program_engine_verifies_clean(self, engine):
        schedule, findings = analyze_plan(256, 4, GOLDILOCKS, engine=engine,
                                          machine=MACHINE)
        assert schedule.num_gpus == 4
        assert findings == []

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            analyze_plan(256, 4, GOLDILOCKS, engine="warp9")


class TestBadFusion:
    def test_bad_fusion_is_read_before_write(self):
        # Merging across the exchange makes the collective consume a
        # tag nobody produces anymore.
        schedule = seed_bug(build_unintt_schedule(256, 4, EB),
                            "bad-fusion")
        assert "plan.read-before-write" in checks_of(
            verify_schedule(schedule))

    def test_bad_fusion_merges_across_the_collective(self):
        schedule = seed_bug(build_unintt_schedule(256, 4, EB),
                            "bad-fusion")
        assert any("+" in op.name for op in schedule.ops)

    def test_the_legitimate_merge_pass_is_not_flagged(self):
        # The illegal fusion's legal twin: merge-local-ops only fuses
        # ADJACENT ops, and its product stays clean.
        from repro.analysis.passes import merge_local_ops
        from repro.multigpu.schedule import UniNTTOptions

        options = UniNTTOptions(fused_twiddle=False)
        schedule = merge_local_ops(
            build_unintt_schedule(256, 4, EB, options))
        assert any("+" in op.name for op in schedule.ops)
        assert verify_schedule(schedule) == []


class TestDeterministicFindings:
    def seeded(self):
        return seed_bug(
            seed_bug(build_unintt_schedule(256, 4, EB), "drop-transfer"),
            "wrong-level")

    def test_findings_sorted_by_op_then_check_then_message(self):
        findings = verify_schedule(self.seeded(), machine=MACHINE)
        keys = []
        for finding in findings:
            prefix = finding.where.split(".ops[")[1]
            keys.append((int(prefix.split("]")[0]), finding.check,
                         finding.message))
        assert keys == sorted(keys)

    def test_json_report_is_byte_reproducible(self):
        from repro.analysis import findings_to_json

        first = findings_to_json(
            verify_schedule(self.seeded(), machine=MACHINE), tool="plan")
        second = findings_to_json(
            verify_schedule(self.seeded(), machine=MACHINE), tool="plan")
        assert first == second
        assert json_loads_ok(first)


def json_loads_ok(payload):
    import json

    return json.loads(payload)["count"] >= 1
