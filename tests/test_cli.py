"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "f99"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Goldilocks" in out
        assert "DGX-A100" in out
        assert "4xDGX-A100" in out

    def test_experiment_single(self, capsys):
        assert main(["experiment", "f9"]) == 0
        out = capsys.readouterr().out
        assert "communication breakdown" in out
        assert "unintt" in out

    def test_experiment_multiple(self, capsys):
        assert main(["experiment", "t1", "f10"]) == 0
        out = capsys.readouterr().out
        assert "hardware platforms" in out
        assert "ablation" in out

    @pytest.mark.parametrize("engine", ["single", "baseline", "pairwise",
                                        "unintt"])
    def test_estimate_each_engine(self, engine, capsys):
        assert main(["estimate", "--engine", engine,
                     "--log-size", "20"]) == 0
        out = capsys.readouterr().out
        assert "ms" in out
        assert "bottleneck" in out

    def test_estimate_other_machine_and_field(self, capsys):
        assert main(["estimate", "--machine", "DGX-1-V100",
                     "--field", "Goldilocks", "--log-size", "18"]) == 0
        assert "DGX-1-V100" in capsys.readouterr().out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "bit-exact" in out
        assert "verified" in out

    def test_experiment_registry_complete(self):
        """Every bench-file experiment has a CLI id."""
        for required in ("t1", "t2", "t3", "f7", "f8", "f9", "f10", "f11",
                         "f12", "f14"):
            assert required in EXPERIMENTS

    @pytest.mark.parametrize("exp_id,runner", [
        ("f16", "uniformity_table"), ("f17", "autotune_table"),
        ("f18", "streaming_table")])
    def test_experiment_prints_the_benchmark_runner_table(
            self, exp_id, runner, capsys):
        """The CLI and the benchmark file print one runner's table."""
        from repro.bench import format_table, runners

        headers, rows = getattr(runners, runner)()
        title = EXPERIMENTS[exp_id][1]
        assert main(["experiment", exp_id]) == 0
        assert capsys.readouterr().out \
            == format_table(headers, rows, title=title) + "\n\n"


class TestTraceAndTune:
    def test_trace(self, capsys):
        assert main(["trace", "--log-size", "8", "--gpus", "4"]) == 0
        out = capsys.readouterr().out
        assert "bit-exact" in out
        assert "collectives: 1" in out

    @pytest.mark.parametrize("engine", ["baseline", "pairwise"])
    def test_trace_other_engines(self, engine, capsys):
        assert main(["trace", "--log-size", "8", "--gpus", "4",
                     "--engine", engine]) == 0
        assert "bit-exact" in capsys.readouterr().out

    def test_tune(self, capsys):
        assert main(["tune", "--log-size", "20"]) == 0
        out = capsys.readouterr().out
        assert "best tile" in out
        assert "engine ranking" in out
        assert "unintt" in out
        assert "sched:" not in out

    def test_tune_on_a_cluster_ranks_schedules(self, capsys):
        assert main(["tune", "--log-size", "20",
                     "--machine", "4xDGX-A100"]) == 0
        out = capsys.readouterr().out
        assert "on 4xDGX-A100" in out
        assert "sched:" in out

    def test_tune_unknown_machine_names_clusters(self, capsys):
        assert main(["tune", "--log-size", "20",
                     "--machine", "no-such"]) == 2
        err = capsys.readouterr().err
        assert "no preset machine or cluster" in err
        assert "4xDGX-A100" in err

    def test_estimate_with_machine_file(self, tmp_path, capsys):
        import json

        from repro.hw import DGX1_V100, machine_to_dict

        path = tmp_path / "m.json"
        path.write_text(json.dumps(machine_to_dict(DGX1_V100)))
        assert main(["estimate", "--machine-file", str(path),
                     "--log-size", "20"]) == 0
        assert "DGX-1-V100" in capsys.readouterr().out


class TestErrorHygiene:
    """Library failures exit 2 with one line; --debug gets the traceback."""

    def test_unknown_field_exits_2_with_one_line(self, capsys):
        assert main(["estimate", "--field", "NoSuchField"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: error: ")
        assert "NoSuchField" in captured.err
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_unknown_machine_exits_2(self, capsys):
        assert main(["estimate", "--machine", "NoSuchBox"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert "NoSuchBox" in err

    def test_missing_machine_file_exits_2(self, capsys):
        assert main(["estimate", "--machine-file", "/no/such.json"]) == 2
        assert "repro: error: " in capsys.readouterr().err

    def test_bad_fault_spec_exits_2(self, capsys):
        assert main(["trace", "--log-size", "8", "--gpus", "4",
                     "--fault", "transient-comm"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert "@step" in err

    def test_debug_reraises(self):
        with pytest.raises(KeyError, match="NoSuchField"):
            main(["--debug", "estimate", "--field", "NoSuchField"])


class TestFaultInjectionCli:
    def test_trace_with_fault_and_resilience(self, capsys):
        assert main(["trace", "--log-size", "8", "--gpus", "4",
                     "--fault", "transient-comm@0", "--resilient"]) == 0
        out = capsys.readouterr().out
        assert "bit-exact" in out
        assert "fault" in out
        assert "retry" in out
        assert "resilience:" in out

    def test_trace_with_device_death(self, capsys):
        assert main(["trace", "--log-size", "8", "--gpus", "4",
                     "--fault", "device-death@0:gpu=1",
                     "--resilient"]) == 0
        out = capsys.readouterr().out
        assert "reshard" in out

    def test_trace_with_fault_plan_file(self, tmp_path, capsys):
        from repro.sim import FaultPlan

        plan = FaultPlan.from_specs(["transient-comm@0"], seed=3)
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert main(["trace", "--log-size", "8", "--gpus", "4",
                     "--fault-plan", str(path), "--resilient"]) == 0
        assert "retry" in capsys.readouterr().out

    def test_unrecovered_fault_fails_run(self, capsys):
        # without --resilient a transient fault aborts the transform
        assert main(["trace", "--log-size", "8", "--gpus", "4",
                     "--fault", "transient-comm@0"]) == 2
        assert "transiently" in capsys.readouterr().err

    def test_f20_registered(self):
        assert "f20" in EXPERIMENTS


class TestServe:
    def test_serve_default_burst(self, capsys):
        assert main(["serve", "--requests", "4", "--log-size", "6"]) == 0
        out = capsys.readouterr().out
        assert "served 4/4" in out
        assert "plan cache" in out
        assert "latency" in out

    def test_serve_verify_is_bit_exact(self, capsys):
        assert main(["serve", "--requests", "3", "--log-size", "6",
                     "--direction", "inverse", "--verify"]) == 0
        assert "bit-exact" in capsys.readouterr().out

    def test_serve_json(self, capsys):
        import json

        assert main(["serve", "--requests", "4", "--log-size", "6",
                     "--json", "--verify"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] == 4
        assert payload["verified"] is True
        assert "latency_percentiles_s" in payload

    def test_serve_workload_file(self, tmp_path, capsys):
        path = tmp_path / "workload.json"
        path.write_text('{"spec": {"requests": 3, "log_sizes": [6]}}')
        assert main(["serve", "--workload", str(path)]) == 0
        assert "served 3/3" in capsys.readouterr().out

    def test_serve_with_fault_retries_and_verifies(self, capsys):
        assert main(["serve", "--requests", "4", "--log-size", "8",
                     "--strategy", "split",
                     "--fault", "transient-comm@2", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "retries 1" in out
        assert "bit-exact" in out

    def test_serve_backpressure_reports_rejections(self, capsys):
        assert main(["serve", "--requests", "5", "--log-size", "6",
                     "--queue-capacity", "2"]) == 0
        out = capsys.readouterr().out
        assert "served 2/5" in out
        assert "rejected 3" in out

    def test_serve_bad_field_exits_2(self, capsys):
        assert main(["serve", "--field", "NoSuchField"]) == 2
        assert "error" in capsys.readouterr().err

    def test_serve_mixed_field_fault_injection_exits_2(self, capsys):
        assert main(["serve", "--requests", "2", "--log-size", "6",
                     "--field", "Goldilocks", "--field", "BabyBear",
                     "--fault", "transient-comm@0"]) == 2
        assert "single-field" in capsys.readouterr().err

    def test_f21_registered(self):
        assert "f21" in EXPERIMENTS


class TestServeErrorHygiene:
    """Malformed serve inputs exit 2 with one clean line."""

    def test_invalid_workload_json(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text("{not json")
        assert main(["serve", "--workload", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error: ")
        assert "JSON" in captured.err
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_workload_spec_wrong_type(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text('{"spec": [1, 2, 3]}')
        assert main(["serve", "--workload", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert "spec" in err
        assert err.count("\n") == 1

    def test_workload_bad_request_record(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text('{"requests": [{"no_such_field": 1}]}')
        assert main(["serve", "--workload", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_malformed_fault_plan_json(self, tmp_path, capsys):
        path = tmp_path / "faults.json"
        path.write_text('{"faults": "oops"}')
        assert main(["serve", "--requests", "2", "--log-size", "6",
                     "--fault-plan", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_crash_without_recover(self, capsys):
        assert main(["serve", "--requests", "2", "--log-size", "6",
                     "--crash", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert "--recover" in err
        assert err.count("\n") == 1


class TestDurabilityCli:
    def test_journal_line_in_output(self, capsys):
        assert main(["serve", "--requests", "4", "--log-size", "6",
                     "--journal"]) == 0
        assert "durability: journal" in capsys.readouterr().out

    def test_crash_recover_verify(self, capsys):
        assert main(["serve", "--requests", "4", "--log-size", "6",
                     "--crash", "5", "--recover", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "served 4/4" in out
        assert "1 recovery(ies)" in out
        assert "bit-exact" in out

    def test_crash_recover_json(self, capsys):
        import json

        assert main(["serve", "--requests", "4", "--log-size", "6",
                     "--crash", "5", "--recover", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["recoveries"] == 1
        assert payload["merged_completed"] == 4

    def test_degrade_line_in_output(self, capsys):
        assert main(["serve", "--requests", "4", "--log-size", "6",
                     "--strategy", "split", "--no-batching",
                     "--fault", "transient-comm@0:count=100000",
                     "--degrade"]) == 0
        out = capsys.readouterr().out
        assert "degradation:" in out
        assert "served 4/4" in out

    def test_f22_experiment_is_registered(self):
        from repro.cli import EXPERIMENTS

        assert "f22" in EXPERIMENTS
        build_parser().parse_args(["experiment", "f22"])


class TestFleetCli:
    def test_fleet_serve_text_summary(self, capsys):
        assert main(["serve", "--requests", "6", "--log-size", "6",
                     "--replicas", "2", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "fleet of 2 replicas served 6/6" in out
        assert "detector:" in out
        assert "per-replica completed:" in out
        assert "bit-exact" in out

    def test_fleet_serve_json(self, capsys):
        import json

        assert main(["serve", "--requests", "6", "--log-size", "6",
                     "--replicas", "2", "--json", "--verify"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["replicas"] == 2
        assert payload["completed"] == 6
        assert payload["verified"] is True

    def test_fleet_survives_a_replica_kill(self, capsys):
        assert main(["serve", "--requests", "8", "--log-size", "6",
                     "--replicas", "3",
                     "--fault", "replica-crash@1:replica=1",
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "served 8/8" in out
        # The burst is single-shape, so the dead replica may hold no
        # work (no failover needed); the death is still accounted and
        # every request still completes bit-exactly.
        assert "1 death(s)" in out
        assert "bit-exact" in out

    def test_fleet_tenant_weights_flow_through(self, capsys):
        assert main(["serve", "--requests", "6", "--log-size", "6",
                     "--replicas", "2",
                     "--tenant-weight", "gold=4.0"]) == 0
        assert "fleet of 2 replicas" in capsys.readouterr().out

    def test_fleet_faults_need_a_fleet(self, capsys):
        assert main(["serve", "--requests", "4", "--log-size", "6",
                     "--fault", "replica-crash@1:replica=0"]) == 2
        assert "--replicas" in capsys.readouterr().err

    def test_fleet_rejects_single_server_durability_flags(self, capsys):
        assert main(["serve", "--requests", "4", "--log-size", "6",
                     "--replicas", "2", "--crash", "5"]) == 2
        assert "--crash" in capsys.readouterr().err

    def test_bad_tenant_weight_spec_exits_2(self, capsys):
        assert main(["serve", "--requests", "4", "--log-size", "6",
                     "--replicas", "2",
                     "--tenant-weight", "goldfour"]) == 2
        assert "TENANT=WEIGHT" in capsys.readouterr().err

    def test_f25_experiment_is_registered(self):
        from repro.cli import EXPERIMENTS

        assert "f25" in EXPERIMENTS
        build_parser().parse_args(["experiment", "f25"])
