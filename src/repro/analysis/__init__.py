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

import importlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.analysis.findings import Check

#: Where each public name lives.  The package imports nothing up front
#: (PEP 562 ``__getattr__``): a process that only runs the UniNTT
#: executor pays for :mod:`~repro.analysis.interp` and
#: :mod:`~repro.analysis.plancheck`, not for the rewriting passes, the
#: synthesizer, the trace checker or the lint.
_EXPORTS = {
    "findings": ("Check", "Finding", "findings_to_json", "render_findings"),
    "interp": ("interpret_schedule",),
    "lint": ("lint_paths",),
    "passes": ("DEFAULT_PASSES", "PassReport", "ScheduleDelta",
               "SchedulePass", "run_passes", "verify_rewrite"),
    "plancheck": ("SEED_BUGS", "analyze_plan", "check_cost", "seed_bug",
                  "verify_schedule"),
    "synth": ("ScheduleCandidate", "enumerate_candidates",
              "synthesize_hierarchical"),
    "tracecheck": ("check_trace",),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = ["all_checks", *_HOME]


def _module(name: str):
    # Imported on demand, so running the lint as a script (``python -m
    # repro.analysis.lint``) does not find it already imported by this
    # package (runpy's double-import warning).
    return importlib.import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    if name in _EXPORTS:
        return _module(name)
    if name in _HOME:
        return getattr(_module(_HOME[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def all_checks() -> list[Check]:
    """Every registered check across the four tools, sorted by id."""
    checks = [check for module in ("plancheck", "tracecheck", "passes",
                                   "lint")
              for check in _module(module).CHECKS]
    return sorted(checks, key=lambda check: check.check_id)
