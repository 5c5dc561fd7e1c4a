"""Static analysis for the reproduction: plan, trace, repo, and rewrite checks.

Four tools share one reporting vocabulary
(:class:`~repro.analysis.findings.Finding`):

* :mod:`repro.analysis.plancheck` — symbolic verification of
  multi-GPU communication schedules (``repro analyze plan``);
* :mod:`repro.analysis.tracecheck` — post-hoc race/coherence checks
  over simulator traces (``repro analyze trace``);
* :mod:`repro.analysis.lint` — AST enforcement of project invariants
  over ``src/repro`` (``repro analyze lint``);
* :mod:`repro.analysis.passes` + :mod:`repro.analysis.synth` — the
  schedule-rewriting compiler layer: peephole passes, hierarchical
  all-to-all synthesis, and the verification gate every rewritten
  schedule must pass (``repro analyze optimize``), with
  :mod:`repro.analysis.interp` executing the products on the simulator
  (it is also the executor every ``UniNTTEngine`` transform runs
  through).

:func:`all_checks` aggregates every registered check for ``repro
info`` and the docs.
"""

from __future__ import annotations

from repro.analysis import passes, plancheck, tracecheck
from repro.analysis.findings import (
    Check, Finding, findings_to_json, render_findings,
)
from repro.analysis.interp import interpret_schedule
from repro.analysis.passes import (
    DEFAULT_PASSES, PassReport, ScheduleDelta, SchedulePass, run_passes,
    verify_rewrite,
)
from repro.analysis.plancheck import (
    SEED_BUGS, analyze_plan, check_cost, seed_bug, verify_schedule,
)
from repro.analysis.synth import (
    ScheduleCandidate, enumerate_candidates, synthesize_hierarchical,
)
from repro.analysis.tracecheck import check_trace

__all__ = [
    "Check", "Finding", "render_findings", "findings_to_json",
    "all_checks", "verify_schedule", "check_cost", "analyze_plan",
    "seed_bug", "SEED_BUGS", "check_trace", "lint_paths",
    "ScheduleDelta", "SchedulePass", "PassReport", "DEFAULT_PASSES",
    "run_passes", "verify_rewrite", "ScheduleCandidate",
    "synthesize_hierarchical", "enumerate_candidates",
    "interpret_schedule",
]


def _lint_module():
    # repro.analysis.lint is imported lazily (and via import_module, to
    # dodge this package's own __getattr__) so that running it as a
    # script (``python -m repro.analysis.lint``) does not import the
    # module twice and trip runpy's double-import warning.
    import importlib

    return importlib.import_module("repro.analysis.lint")


def __getattr__(name: str):
    if name == "lint":
        return _lint_module()
    if name == "lint_paths":
        return _lint_module().lint_paths
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def all_checks() -> list[Check]:
    """Every registered check across the four tools, sorted by id."""
    checks = list(plancheck.CHECKS) + list(tracecheck.CHECKS) \
        + list(passes.CHECKS) + list(_lint_module().CHECKS)
    return sorted(checks, key=lambda check: check.check_id)
