"""``repro.analysis`` imports its tools on first use (PEP 562).

The UniNTT engine runs every transform through the schedule executor,
so every process that builds an engine imports ``repro.analysis``.
The rewriting passes, the synthesizer, the trace checker and the lint
must stay out of such a process until something asks for them, while
every public name of the package still resolves.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

PROBE = """
import json, sys
import repro.multigpu.unintt
loaded = sorted(m for m in sys.modules if m.startswith("repro.analysis"))
import repro.analysis as analysis
missing = [n for n in analysis.__all__ if getattr(analysis, n, None) is None]
print(json.dumps({"loaded": loaded, "missing": missing,
                  "checks": len(analysis.all_checks())}))
"""


def test_engine_import_leaves_the_heavy_tools_unloaded():
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    for name in ("synth", "passes", "tracecheck", "lint"):
        assert f"repro.analysis.{name}" not in out["loaded"], out["loaded"]
    assert "repro.analysis.interp" in out["loaded"]
    assert out["missing"] == []
    assert out["checks"] > 0


def test_public_names_resolve_to_their_home_modules():
    import repro.analysis as analysis
    from repro.analysis import lint, passes, synth, tracecheck

    assert analysis.check_trace is tracecheck.check_trace
    assert analysis.run_passes is passes.run_passes
    assert analysis.synthesize_hierarchical is synth.synthesize_hierarchical
    assert analysis.lint_paths is lint.lint_paths
    assert analysis.passes is passes
    with pytest.raises(AttributeError, match="no_such_tool"):
        analysis.no_such_tool
