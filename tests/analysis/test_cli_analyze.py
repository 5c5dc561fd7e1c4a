"""CLI surface of the analysis subsystem (``repro analyze ...``)."""

import json

import pytest

from repro.analysis.plancheck import SEED_BUGS
from repro.cli import build_parser, main


class TestAnalyzePlan:
    def test_clean_plan_exits_zero(self, capsys):
        assert main(["analyze", "plan", "--gpus", "4",
                     "--log-size", "10"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_ablation_covers_grid(self, capsys):
        assert main(["analyze", "plan", "--gpus", "4", "--log-size",
                     "10", "--ablation"]) == 0
        out = capsys.readouterr().out
        assert "all-on" in out
        assert "all-off" in out

    def test_pairwise_engine(self, capsys):
        assert main(["analyze", "plan", "--engine", "pairwise",
                     "--gpus", "4", "--log-size", "10"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_baseline_engine(self, capsys):
        assert main(["analyze", "plan", "--engine", "baseline",
                     "--gpus", "4", "--log-size", "10"]) == 0
        out = capsys.readouterr().out
        assert "baseline-fourstep" in out and "clean" in out

    def test_seeded_drop_transfer_fails(self, capsys):
        # Acceptance criterion: the corrupted schedule is caught (both
        # the lost transfer and the stale read) and the exit code is
        # non-zero.
        code = main(["analyze", "plan", "--gpus", "4", "--log-size",
                     "10", "--seed-bug", "drop-transfer"])
        assert code != 0
        out = capsys.readouterr().out
        assert "plan.lost-transfer" in out
        assert "plan.read-before-write" in out

    @pytest.mark.parametrize("bug", sorted(SEED_BUGS))
    def test_every_seed_bug_fails(self, bug, capsys):
        engine = "pairwise" if bug == "deadlock" else "unintt"
        assert main(["analyze", "plan", "--engine", engine, "--gpus",
                     "4", "--log-size", "10", "--seed-bug", bug]) == 1
        capsys.readouterr()

    def test_json_output_parses(self, capsys):
        code = main(["analyze", "plan", "--gpus", "4", "--log-size",
                     "10", "--seed-bug", "drop-transfer", "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "plan"
        assert payload["count"] == len(payload["findings"]) > 0
        checks = {finding["check"] for finding in payload["findings"]}
        assert "plan.lost-transfer" in checks

    def test_cli_seed_bug_choices_match_registry(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["analyze", "plan", "--seed-bug",
                               "not-a-bug"])
        for bug in SEED_BUGS:
            args = parser.parse_args(["analyze", "plan", "--seed-bug",
                                      bug])
            assert args.seed_bug == [bug]


class TestAnalyzeTrace:
    def test_clean_trace_exits_zero(self, capsys):
        assert main(["analyze", "trace", "--gpus", "4",
                     "--log-size", "9"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_pairwise_trace(self, capsys):
        assert main(["analyze", "trace", "--engine", "pairwise",
                     "--gpus", "4", "--log-size", "9"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_baseline_trace(self, capsys):
        assert main(["analyze", "trace", "--engine", "baseline",
                     "--gpus", "4", "--log-size", "9"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_json_output(self, capsys):
        assert main(["analyze", "trace", "--gpus", "4", "--log-size",
                     "9", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"count": 0, "findings": [], "tool": "trace"}


class TestAnalyzeLint:
    def test_src_repro_is_clean(self, capsys):
        assert main(["analyze", "lint"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_fail_with_paths(self, tmp_path, capsys):
        bad = tmp_path / "multigpu"
        bad.mkdir()
        (bad / "bad.py").write_text(
            "def f(items=[]):\n    return items\n")
        assert main(["analyze", "lint", str(bad / "bad.py")]) == 1
        assert "lint.mutable-default" in capsys.readouterr().out


class TestInfoListsChecks:
    def test_info_shows_analysis_checks(self, capsys):
        from repro.analysis import all_checks

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "analysis checks:" in out
        for check in all_checks():
            assert check.check_id in out


class TestAnalyzeOptimize:
    def test_cluster_run_is_clean_and_ranks(self, capsys):
        assert main(["analyze", "optimize", "--log-size", "16"]) == 0
        out = capsys.readouterr().out
        assert "schedule candidates" in out
        assert "@hier[ns=8]" in out
        assert "<- selected" in out
        assert "clean" in out

    def test_single_node_machine_works_too(self, capsys):
        assert main(["analyze", "optimize", "--machine", "DGX-A100",
                     "--log-size", "12", "--field", "Goldilocks"]) == 0
        out = capsys.readouterr().out
        assert "@hier[" not in out
        assert "+passes" in out

    def test_json_output(self, capsys):
        assert main(["analyze", "optimize", "--log-size", "16",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"count": 0, "findings": [],
                           "tool": "optimize"}

    def test_unknown_machine_exits_two(self, capsys):
        assert main(["analyze", "optimize", "--machine", "TPU-pod",
                     "--log-size", "12"]) == 2
        capsys.readouterr()
