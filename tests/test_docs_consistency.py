"""Docs/code consistency checks.

Two cheap guards that keep the documentation honest:

* the doctests embedded in the field-layer modules must run and pass
  (so the examples in the backend guide stay executable), and
* every experiment id the CLI accepts must be documented in
  ``docs/REPRODUCING.md`` (so ``repro experiment <id>`` is always
  discoverable from the docs).
"""

import doctest
import os

import pytest

DOCS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "docs")


@pytest.mark.parametrize("module_name", [
    "repro.field.backend",
    "repro.field.vector",
    "repro.field.limbgen",
])
def test_field_doctests(module_name):
    import importlib

    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module_name} has no doctests"
    assert results.failed == 0, (
        f"{results.failed} doctest failure(s) in {module_name}")


def test_every_experiment_id_is_documented():
    from repro.cli import EXPERIMENTS

    path = os.path.join(DOCS, "REPRODUCING.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    missing = [exp_id for exp_id in EXPERIMENTS if f"`{exp_id}`" not in text]
    assert not missing, (
        f"experiment ids {missing} are accepted by the CLI but not "
        f"documented in docs/REPRODUCING.md")


def test_backends_guide_exists_and_covers_api():
    path = os.path.join(DOCS, "BACKENDS.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    for needle in ("FieldBackend", "PythonBackend", "NumPyBackend",
                   "REPRO_BACKEND", "Montgomery", "Goldilocks"):
        assert needle in text, f"docs/BACKENDS.md does not mention {needle}"


def test_fields_guide_exists_and_covers_api():
    path = os.path.join(DOCS, "FIELDS.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    for needle in ("_MultiLimbKernel", "LimbSchedule", "generate_schedule",
                   "emit_montmul_source", "CIOS", "Barrett",
                   "REPRO_BACKEND=multilimb", "host_values",
                   "butterfly_stage", "max_lazy_stages",
                   "lint.pow-inverse", "f23",
                   # The packed-pipelines section: the resident prover
                   # path and its honesty instrumentation.
                   "packed_ops", "pack_values", "unpack_values",
                   "packed_coset_ntt", "fused_mul_sub_scale",
                   "fused_quotient", "mul_mont", "pack_stats",
                   "packed_disabled", "exchange_counts", "f26"):
        assert needle in text, f"docs/FIELDS.md does not mention {needle}"


def test_fields_guide_schedule_numbers_match_codegen():
    # The worked example in FIELDS.md quotes the derived BN254-Fr
    # schedule; if the codegen ever picks different numbers the doc
    # must be rewritten, not silently left stale.
    from repro.field import BN254_FR, BLS12_381_FR
    from repro.field.limbgen import generate_schedule

    path = os.path.join(DOCS, "FIELDS.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    for field in (BN254_FR, BLS12_381_FR):
        sched = generate_schedule(field.modulus)
        assert sched.fmt in text, (
            f"docs/FIELDS.md does not mention the {field.name} "
            f"schedule format {sched.fmt}")
    sched = generate_schedule(BN254_FR.modulus)
    assert f"R = 2^{sched.limb_bits * sched.limbs}" in text
    assert f"n' = {sched.n_prime:#x}" in text


def test_fields_guide_is_cross_linked():
    import re

    root = os.path.dirname(DOCS)
    for name in (os.path.join(root, "README.md"),
                 os.path.join(DOCS, "API.md"),
                 os.path.join(DOCS, "BACKENDS.md"),
                 os.path.join(DOCS, "REPRODUCING.md"),
                 os.path.join(DOCS, "ANALYSIS.md")):
        with open(name, encoding="utf-8") as handle:
            assert re.search(r"FIELDS\.md", handle.read()), (
                f"{os.path.basename(name)} does not link to FIELDS.md")


def test_analysis_guide_exists_and_covers_api():
    path = os.path.join(DOCS, "ANALYSIS.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    for needle in ("verify_schedule", "check_trace", "seed_bug",
                   "repro analyze plan", "repro analyze trace",
                   "repro analyze lint", "EVENT_KINDS", "Exit codes"):
        assert needle in text, f"docs/ANALYSIS.md does not mention {needle}"


def test_resilience_guide_exists_and_covers_api():
    path = os.path.join(DOCS, "RESILIENCE.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    for needle in ("FaultPlan", "FaultInjector", "ResilientNTTEngine",
                   "RetryPolicy", "ResilienceReport", "checkpoint",
                   "reshard", "trace.unresolved-fault", "--resilient",
                   "f20"):
        assert needle in text, (
            f"docs/RESILIENCE.md does not mention {needle}")


def test_serving_guide_exists_and_covers_api():
    path = os.path.join(DOCS, "SERVING.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    for needle in ("ProofServer", "ProofRequest", "AdmissionQueue",
                   "PlanCache", "TwiddleLedger", "ServeReport",
                   "WorkloadSpec", "VirtualClock", "zero recompute",
                   "repro serve", "f21",
                   "trace.serve-dangling-dispatch"):
        assert needle in text, f"docs/SERVING.md does not mention {needle}"


def test_every_serve_trace_kind_is_documented():
    from repro.sim.trace import EVENT_KINDS

    path = os.path.join(DOCS, "SERVING.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    serve_kinds = [kind for kind in EVENT_KINDS
                   if kind.startswith("serve-")]
    assert serve_kinds, "no serve-level trace kinds are registered"
    missing = [kind for kind in serve_kinds if f"`{kind}`" not in text]
    assert not missing, (
        f"serve trace kinds {missing} are registered but not documented "
        f"in docs/SERVING.md")


def test_serving_guide_is_cross_linked():
    import re

    root = os.path.dirname(DOCS)
    for name in (os.path.join(root, "README.md"),
                 os.path.join(DOCS, "API.md"),
                 os.path.join(DOCS, "REPRODUCING.md"),
                 os.path.join(DOCS, "ANALYSIS.md")):
        with open(name, encoding="utf-8") as handle:
            assert re.search(r"SERVING\.md", handle.read()), (
                f"{os.path.basename(name)} does not link to SERVING.md")


def test_durability_guide_exists_and_covers_api():
    path = os.path.join(DOCS, "DURABILITY.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    for needle in ("WriteAheadJournal", "ServerSnapshot",
                   "RecoveryManager", "serve_durably", "DegradePolicy",
                   "CircuitBreaker", "ServerCrashError",
                   "exactly once", "bit-identical", "`server-crash@",
                   "--crash", "--recover", "--degrade", "f22"):
        assert needle in text, (
            f"docs/DURABILITY.md does not mention {needle}")


def test_every_journal_kind_is_documented():
    from repro.serve import JOURNAL_KINDS

    path = os.path.join(DOCS, "DURABILITY.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    missing = [kind for kind in JOURNAL_KINDS if f"`{kind}`" not in text]
    assert not missing, (
        f"journal record kinds {missing} are appendable but not "
        f"documented in docs/DURABILITY.md")


def test_durability_guide_is_cross_linked():
    import re

    root = os.path.dirname(DOCS)
    for name in (os.path.join(root, "README.md"),
                 os.path.join(DOCS, "API.md"),
                 os.path.join(DOCS, "SERVING.md"),
                 os.path.join(DOCS, "RESILIENCE.md"),
                 os.path.join(DOCS, "REPRODUCING.md"),
                 os.path.join(DOCS, "ANALYSIS.md")):
        with open(name, encoding="utf-8") as handle:
            assert re.search(r"DURABILITY\.md", handle.read()), (
                f"{os.path.basename(name)} does not link to "
                "DURABILITY.md")


def test_every_fault_kind_is_documented():
    from repro.sim.faults import FAULT_KINDS

    path = os.path.join(DOCS, "RESILIENCE.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    missing = [kind for kind in FAULT_KINDS if f"`{kind}`" not in text]
    assert not missing, (
        f"fault kinds {missing} are injectable but not documented in "
        f"docs/RESILIENCE.md")


def test_schedules_guide_exists_and_covers_api():
    path = os.path.join(DOCS, "SCHEDULES.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    for needle in ("merge-local-ops", "dead-op-elimination",
                   "pipeline-fusion", "run_passes", "verify_rewrite",
                   "ScheduleDelta", "synthesize_hierarchical",
                   "route_via", "split_exchange", "interpret_schedule",
                   "select_schedule", "repro analyze optimize",
                   "plan.rewrite-differs", "f24"):
        assert needle in text, (
            f"docs/SCHEDULES.md does not mention {needle}")


def test_every_seed_bug_kind_is_documented():
    from repro.analysis.plancheck import SEED_BUGS

    path = os.path.join(DOCS, "ANALYSIS.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    missing = [kind for kind in SEED_BUGS if f"`{kind}`" not in text]
    assert not missing, (
        f"seed-bug kinds {missing} are injectable but not documented "
        f"in docs/ANALYSIS.md")


def test_every_default_pass_is_documented():
    from repro.analysis.passes import DEFAULT_PASSES

    for doc in ("ANALYSIS.md", "SCHEDULES.md"):
        path = os.path.join(DOCS, doc)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        missing = [p.name for p in DEFAULT_PASSES
                   if f"`{p.name}`" not in text]
        assert not missing, (
            f"schedule passes {missing} are registered but not "
            f"documented in docs/{doc}")


def test_schedules_guide_is_cross_linked():
    import re

    root = os.path.dirname(DOCS)
    for name in (os.path.join(root, "README.md"),
                 os.path.join(DOCS, "API.md"),
                 os.path.join(DOCS, "REPRODUCING.md"),
                 os.path.join(DOCS, "ANALYSIS.md")):
        with open(name, encoding="utf-8") as handle:
            assert re.search(r"SCHEDULES\.md", handle.read()), (
                f"{os.path.basename(name)} does not link to "
                "SCHEDULES.md")


def test_every_analysis_check_is_documented():
    from repro.analysis import all_checks

    path = os.path.join(DOCS, "ANALYSIS.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    missing = [check.check_id for check in all_checks()
               if f"`{check.check_id}`" not in text]
    assert not missing, (
        f"analysis checks {missing} are registered but not documented "
        f"in docs/ANALYSIS.md")


def test_fleet_guide_exists_and_covers_api():
    path = os.path.join(DOCS, "FLEET.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    for needle in ("FleetServer", "FleetPolicy", "FleetReport",
                   "ConsistentHashRouter", "WeightedFairQueue",
                   "VirtualClock", "EventLoop", "SharedCounter",
                   "suspect_phi", "failover_phi", "replay_journal",
                   "exactly once", "bit-identical", "--replicas",
                   "f25", "trace.unresolved-suspicion",
                   "trace.duplicate-complete", "lint.wall-clock"):
        assert needle in text, f"docs/FLEET.md does not mention {needle}"


def test_every_fleet_fault_kind_is_documented_in_fleet_md():
    from repro.sim.faults import FLEET_KINDS

    path = os.path.join(DOCS, "FLEET.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    missing = [kind for kind in sorted(FLEET_KINDS)
               if f"`{kind}`" not in text]
    assert not missing, (
        f"fleet fault kinds {missing} are consumed by FleetServer but "
        f"not documented in docs/FLEET.md")


def test_every_fleet_trace_kind_is_documented_in_fleet_md():
    path = os.path.join(DOCS, "FLEET.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    for kind in ("serve-route", "serve-heartbeat", "serve-failover",
                 "serve-steal"):
        assert f"`{kind}`" in text, (
            f"fleet trace kind {kind} is not documented in docs/FLEET.md")


def test_fleet_guide_is_cross_linked():
    import re

    root = os.path.dirname(DOCS)
    for name in (os.path.join(root, "README.md"),
                 os.path.join(DOCS, "API.md"),
                 os.path.join(DOCS, "SERVING.md"),
                 os.path.join(DOCS, "DURABILITY.md"),
                 os.path.join(DOCS, "RESILIENCE.md"),
                 os.path.join(DOCS, "ANALYSIS.md"),
                 os.path.join(DOCS, "REPRODUCING.md")):
        with open(name, encoding="utf-8") as handle:
            assert re.search(r"FLEET\.md", handle.read()), (
                f"{os.path.basename(name)} does not link to FLEET.md")
