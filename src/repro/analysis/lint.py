"""Repo lint: AST checks for the project's own invariants.

Generic linters cannot know that this codebase routes all bulk modular
arithmetic through the :class:`~repro.field.backend.FieldBackend`
``vec_*`` helpers, that the simulator must be bit-deterministic, or
that trace event kinds form a closed registry.  This module encodes
those rules as AST visitors over ``src/repro/``:

* ``lint.raw-mod`` — inside ``multigpu/`` (the hot paths), no
  element-wise modular sweep may bypass the backend: comprehensions
  whose element is a ``%`` expression, lambdas returning one, and
  loops with any body statement storing one into a subscript are all
  bulk operations that belong in ``repro.field.vector``.  Scalar
  ``%`` (an index computation, a single twiddle) is fine and not
  flagged.
* ``lint.nondeterminism`` — inside ``sim/``, ``multigpu/``, and
  ``serve/``, no ``random.*`` (except constructing a seeded
  ``random.Random``) and no ``time.*``: simulated results must be a
  pure function of their inputs.
* ``lint.dict-order`` — in the same packages, no loop or comprehension
  may iterate directly over ``.values()``/``.items()``/``.keys()`` of
  a shard/device/cluster/breaker map: those dicts are keyed by device
  or engine, their insertion order depends on execution history, and
  order-dependent iteration over them is exactly how replay divergence
  sneaks in.  Wrapping the call in ``sorted(...)`` fixes the order and
  the finding.
* ``lint.pow-inverse`` — inside ``ntt/`` and ``multigpu/`` (the
  big-field hot paths), no per-element Fermat inversion: a 3-argument
  ``pow(x, e - 2, m)`` computes one modular inverse per call, which on
  BN254-Fr/BLS12-381-Fr costs ~380 squarings each.  Bulk inversion
  belongs in ``vec_inv`` (one inversion per *vector* via Montgomery's
  batch trick: a linear pass of ~3 multiplies per entry).  A
  scalar inverse in setup code (a twiddle seed, an n^-1 factor)
  carries the same cost but runs once; those sites use
  ``field.inv(...)``, which this check deliberately does not match.
* ``lint.wall-clock`` — inside ``serve/``, ``sim/``, and ``runtime/``,
  no wall-clock read at all: ``time.time``/``time.monotonic``/
  ``time.perf_counter`` (and their ``_ns`` variants),
  ``datetime.now``/``utcnow``/``today``, and bare calls to those names
  when imported via ``from time import ...``.  The serving and
  simulation layers run on :class:`~repro.runtime.clock.VirtualClock`;
  a single wall-clock read makes reports differ run-to-run and breaks
  journal replay.  (This overlaps ``lint.nondeterminism`` for plain
  ``time.*`` in ``serve/``/``sim/`` — deliberately: the wall-clock
  rule also covers ``runtime/``, ``datetime``, and from-imports that
  the module-attribute check cannot see.)
* ``lint.abft-hook`` — inside ``multigpu/``, every function that
  records a ``local-compute`` :class:`TraceEvent` must also call
  ``local_compute_hook(...)`` in the same function body.  The hook is
  where the fault injector's per-step counter advances and where
  compute faults land; a charge without the hook is a kernel the SDC
  chaos machinery cannot corrupt *and* a step-count desync that breaks
  deterministic fault replay.  (``streaming`` passes ``None`` buffers —
  still a hook call: the counter advances even when no data is live.)
* ``lint.mutable-default`` — repo-wide: no mutable default arguments.
* ``lint.trace-kind`` — repo-wide: every literal ``kind=`` passed to
  ``TraceEvent`` must be registered in
  :data:`repro.sim.trace.EVENT_KINDS`.
* ``lint.raw-transfers`` — repo-wide: no hand-constructed
  ``ShardTransfer(...)`` outside the schedule builders
  (``multigpu/schedule.py``) and the pass framework
  (``analysis/passes.py``/``analysis/synth.py``).  Transfer tuples
  written by hand drift from the layout relayout that
  ``make_transfers`` derives, and the byte totals the verifier,
  cost model, and simulator all cross-check silently diverge.

The module itself depends only on the standard library (plus the
registry in :mod:`repro.sim.trace`, which is stdlib-only too), so
``python -m repro.analysis.lint`` works as a bare pre-commit hook with
no third-party packages installed.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys

from repro.analysis.findings import (
    Check, Finding, findings_to_json, render_findings,
)
from repro.sim.trace import EVENT_KINDS

__all__ = ["CHECKS", "lint_paths", "lint_file", "default_root", "main"]

CHECKS = (
    Check("lint.raw-mod", 1,
          "bulk modular arithmetic in multigpu/ bypassing FieldBackend"),
    Check("lint.nondeterminism", 1,
          "unseeded random.* or time.* inside sim/, multigpu/, or serve/"),
    Check("lint.dict-order", 1,
          "order-sensitive iteration over a shard/device map"),
    Check("lint.pow-inverse", 1,
          "per-element pow(x, e-2, m) inversion on an NTT/multigpu "
          "hot path; use vec_inv (batch inversion)"),
    Check("lint.wall-clock", 1,
          "wall-clock read (time.time/monotonic/perf_counter, "
          "datetime.now, ...) inside serve/, sim/, or runtime/; "
          "simulated time comes from VirtualClock"),
    Check("lint.abft-hook", 1,
          "local-compute TraceEvent recorded without calling "
          "local_compute_hook in the same function; the fault "
          "injector (and ABFT chaos) cannot see that kernel"),
    Check("lint.mutable-default", 1,
          "mutable default argument"),
    Check("lint.trace-kind", 1,
          "TraceEvent kind not declared in EVENT_KINDS"),
    Check("lint.raw-transfers", 1,
          "hand-constructed ShardTransfer outside make_transfers/the "
          "schedule builders/the pass framework"),
)

#: The only files allowed to construct ``ShardTransfer`` directly: the
#: builders that derive transfers from layouts, and the pass framework
#: that rewrites them under the verification gate.  ``/``-separated,
#: relative to the lint root.
TRANSFER_BUILDER_FILES = frozenset({
    "multigpu/schedule.py",
    "analysis/passes.py",
    "analysis/synth.py",
})

#: Sub-packages whose element-wise arithmetic must ride the backend.
HOT_PACKAGES = ("multigpu",)

#: Sub-packages on the big-field hot path, where a per-element Fermat
#: inverse (3-arg ``pow`` with an ``e - 2`` exponent) is a ~380x
#: per-call slowdown against batch inversion.
BIGFIELD_PACKAGES = ("ntt", "multigpu")

#: Sub-packages that must be bit-deterministic.
DETERMINISTIC_PACKAGES = ("sim", "multigpu", "serve")

#: Sub-packages that run on :class:`~repro.runtime.clock.VirtualClock`:
#: any wall-clock read there makes reports differ run-to-run and
#: breaks journal replay.  ``runtime`` (the shared event loop) is
#: included even though it is not in :data:`DETERMINISTIC_PACKAGES` —
#: its clock *is* the simulated time source, so leaking real time into
#: it would corrupt every consumer at once.
WALL_CLOCK_PACKAGES = ("serve", "sim", "runtime")

#: ``time``-module attributes that read the host's clocks.
_WALL_CLOCK_TIME_ATTRS = frozenset({
    "time", "monotonic", "perf_counter", "process_time",
    "time_ns", "monotonic_ns", "perf_counter_ns",
    "clock_gettime", "clock_gettime_ns",
})

#: ``datetime``/``date`` constructors that capture "now".
_WALL_CLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

#: Dict view methods whose iteration order is insertion order — i.e.
#: execution history — rather than anything reproducible by key.
_DICT_VIEW_METHODS = frozenset({"values", "items", "keys"})

#: Receiver-name fragments marking a map keyed by device or engine
#: (``self._breakers``, ``shard_map``, ``per_gpu`` ...); iterating one
#: unsorted makes replay order depend on fault/arrival history.
_ORDER_SENSITIVE_FRAGMENTS = ("shard", "gpu", "device", "cluster",
                              "breaker", "engine")

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set,
                     ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set", "bytearray"})


def _is_mod(node: ast.AST) -> bool:
    """True for an expression whose outermost operation is ``%``."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)


def _stores_mod(stmt: ast.stmt) -> bool:
    """True for ``x[i] = v % p``, ``x[i] %= p`` or ``x[i] += v % p``."""
    if isinstance(stmt, ast.AugAssign):
        return (isinstance(stmt.target, ast.Subscript)
                and (isinstance(stmt.op, ast.Mod) or _is_mod(stmt.value)))
    return (isinstance(stmt, ast.Assign) and _is_mod(stmt.value)
            and any(isinstance(t, ast.Subscript) for t in stmt.targets))


class _FileLinter(ast.NodeVisitor):
    def __init__(self, rel_path: str, hot: bool, deterministic: bool,
                 bigfield: bool = False, transfer_builder: bool = False,
                 wall_clock: bool = False):
        self.rel_path = rel_path
        self.hot = hot
        self.deterministic = deterministic
        self.bigfield = bigfield
        self.transfer_builder = transfer_builder
        self.wall_clock = wall_clock
        #: Local names bound to wall-clock readers by
        #: ``from time import ...`` (honoring ``as`` aliases), so bare
        #: ``monotonic()`` calls are caught too.
        self._clock_imports: set[str] = set()
        #: Per-function scopes for the abft-hook pairing: each frame
        #: remembers the first ``local-compute`` TraceEvent node and
        #: whether ``local_compute_hook`` was called in that function.
        self._fn_stack: list[dict] = []
        self.findings: list[Finding] = []

    def _flag(self, check: str, message: str, node: ast.AST) -> None:
        self.findings.append(Finding(
            check, message, f"{self.rel_path}:{node.lineno}"))

    # -- lint.raw-mod ---------------------------------------------------------

    def _check_comprehension(self, node) -> None:
        if self.hot and _is_mod(node.elt):
            self._flag(
                "lint.raw-mod",
                "comprehension applies % element-wise; route it "
                "through repro.field.vector (vec_mul/vec_scale/...)",
                node)
        for generator in node.generators:
            self._check_dict_order(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _check_comprehension
    visit_SetComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension

    def visit_Lambda(self, node: ast.Lambda) -> None:
        if self.hot and _is_mod(node.body):
            self._flag(
                "lint.raw-mod",
                "lambda returns a % expression (bulk combiner); use a "
                "repro.field.vector helper", node)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if self.hot and any(_stores_mod(stmt) for stmt in node.body):
            self._flag(
                "lint.raw-mod",
                "loop stores a % expression per element; this is a "
                "vector sweep — use repro.field.vector", node)
        self._check_dict_order(node.iter)
        self.generic_visit(node)

    # -- lint.dict-order ------------------------------------------------------

    def _check_dict_order(self, iter_node: ast.AST) -> None:
        """Flag iteration straight over a shard-map's dict view.

        Only the *direct* loop iterable is checked, so wrapping the
        view in ``sorted(...)`` (which fixes the order) clears the
        finding by construction.
        """
        if not self.deterministic:
            return
        if not (isinstance(iter_node, ast.Call)
                and isinstance(iter_node.func, ast.Attribute)
                and iter_node.func.attr in _DICT_VIEW_METHODS
                and not iter_node.args and not iter_node.keywords):
            return
        receiver = iter_node.func.value
        if isinstance(receiver, ast.Attribute):
            name = receiver.attr
        elif isinstance(receiver, ast.Name):
            name = receiver.id
        else:
            return
        lowered = name.lower()
        if any(fragment in lowered
               for fragment in _ORDER_SENSITIVE_FRAGMENTS):
            self._flag(
                "lint.dict-order",
                f"iterating {name}.{iter_node.func.attr}() directly: "
                "this map is keyed by device/engine and its insertion "
                "order is execution history — wrap it in sorted(...)",
                iter_node)

    # -- lint.nondeterminism ------------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self.deterministic and isinstance(node.value, ast.Name):
            module = node.value.id
            if module == "random" and node.attr != "Random":
                self._flag(
                    "lint.nondeterminism",
                    f"random.{node.attr} in a deterministic package; "
                    "only seeded random.Random(...) is allowed", node)
            elif module == "time":
                self._flag(
                    "lint.nondeterminism",
                    f"time.{node.attr} in a deterministic package; "
                    "simulated time comes from the cost model", node)
        self.generic_visit(node)

    # -- lint.wall-clock ----------------------------------------------------------

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self.wall_clock and node.module == "time":
            for alias in node.names:
                if alias.name in _WALL_CLOCK_TIME_ATTRS:
                    self._clock_imports.add(alias.asname or alias.name)
                    self._flag(
                        "lint.wall-clock",
                        f"from time import {alias.name}: wall-clock "
                        "reader imported into a simulated-time "
                        "package; time here comes from VirtualClock",
                        node)
        self.generic_visit(node)

    def _check_wall_clock_call(self, node: ast.Call) -> None:
        if not self.wall_clock:
            return
        callee = node.func
        if isinstance(callee, ast.Name):
            if callee.id in self._clock_imports:
                self._flag(
                    "lint.wall-clock",
                    f"{callee.id}() reads the host clock; serve/sim/"
                    "runtime time comes from VirtualClock", node)
            return
        if not isinstance(callee, ast.Attribute):
            return
        receiver = callee.value
        if (isinstance(receiver, ast.Name) and receiver.id == "time"
                and callee.attr in _WALL_CLOCK_TIME_ATTRS):
            self._flag(
                "lint.wall-clock",
                f"time.{callee.attr}() reads the host clock; serve/"
                "sim/runtime time comes from VirtualClock", node)
            return
        if callee.attr in _WALL_CLOCK_DATETIME_ATTRS:
            base = receiver.id if isinstance(receiver, ast.Name) \
                else receiver.attr if isinstance(receiver, ast.Attribute) \
                else ""
            if base in ("datetime", "date"):
                self._flag(
                    "lint.wall-clock",
                    f"{base}.{callee.attr}() captures the host's "
                    "current date/time; simulated runs must not "
                    "depend on when they execute", node)

    # -- lint.mutable-default / lint.abft-hook ------------------------------------

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults)
        defaults += [d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            mutable = isinstance(default, _MUTABLE_LITERALS) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CONSTRUCTORS)
            if mutable:
                self._flag(
                    "lint.mutable-default",
                    f"function {node.name!r} has a mutable default "
                    "argument; use None (or a dataclass "
                    "default_factory)", default)
        # The local-compute charge and the injector hook must pair up
        # inside one function so the step counter cannot drift from
        # the trace.
        self._fn_stack.append({"name": node.name, "event": None,
                               "hook": False})
        self.generic_visit(node)
        frame = self._fn_stack.pop()
        if self.hot and frame["event"] is not None and not frame["hook"]:
            self._flag(
                "lint.abft-hook",
                f"function {node.name!r} records a local-compute "
                "TraceEvent but never calls local_compute_hook; the "
                "fault injector's step counter (and the ABFT chaos "
                "path) skips this kernel", frame["event"])

    visit_FunctionDef = _check_defaults
    visit_AsyncFunctionDef = _check_defaults

    # -- lint.trace-kind ----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._check_wall_clock_call(node)
        callee = node.func
        name = callee.attr if isinstance(callee, ast.Attribute) \
            else callee.id if isinstance(callee, ast.Name) else ""
        if name == "local_compute_hook" and self._fn_stack:
            self._fn_stack[-1]["hook"] = True
        if (self.bigfield and name == "pow"
                and isinstance(callee, ast.Name)
                and len(node.args) == 3
                and isinstance(node.args[1], ast.BinOp)
                and isinstance(node.args[1].op, ast.Sub)
                and isinstance(node.args[1].right, ast.Constant)
                and node.args[1].right.value == 2):
            self._flag(
                "lint.pow-inverse",
                "pow(x, e - 2, m) is a per-element Fermat inverse "
                "(~380 squarings per call on the big ZKP fields); use "
                "vec_inv — one inversion per vector via batch "
                "inversion, vectorized under the multi-limb backend",
                node)
        if name == "ShardTransfer" and not self.transfer_builder:
            self._flag(
                "lint.raw-transfers",
                "hand-constructed ShardTransfer; transfer tuples come "
                "from make_transfers/the schedule builders (or the "
                "gated pass framework), so their byte totals match the "
                "layout relayout the verifier and simulator check against",
                node)
        if name == "TraceEvent":
            kind_args = [kw.value for kw in node.keywords
                         if kw.arg == "kind"]
            if not kind_args and node.args:
                kind_args = [node.args[0]]
            for value in kind_args:
                if (isinstance(value, ast.Constant)
                        and isinstance(value.value, str)
                        and value.value not in EVENT_KINDS):
                    self._flag(
                        "lint.trace-kind",
                        f"TraceEvent kind {value.value!r} is not "
                        "registered in repro.sim.trace.EVENT_KINDS",
                        value)
                if (isinstance(value, ast.Constant)
                        and value.value == "local-compute"
                        and self._fn_stack
                        and self._fn_stack[-1]["event"] is None):
                    self._fn_stack[-1]["event"] = node
        self.generic_visit(node)


def default_root() -> str:
    """The ``src/repro`` package directory this module is installed in."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _package_of(path: str, root: str) -> str:
    rel = os.path.relpath(os.path.abspath(path), os.path.abspath(root))
    parts = rel.split(os.sep)
    return parts[0] if len(parts) > 1 else ""


def lint_file(path: str, root: str | None = None) -> list[Finding]:
    """Lint one Python source file; returns its findings."""
    root = root or default_root()
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    rel = os.path.relpath(os.path.abspath(path), os.path.abspath(root))
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [Finding("lint.raw-mod",
                        f"file does not parse: {error}", rel)]
    package = _package_of(path, root)
    linter = _FileLinter(
        rel_path=rel,
        hot=package in HOT_PACKAGES,
        deterministic=package in DETERMINISTIC_PACKAGES,
        bigfield=package in BIGFIELD_PACKAGES,
        transfer_builder=rel.replace(os.sep, "/")
        in TRANSFER_BUILDER_FILES,
        wall_clock=package in WALL_CLOCK_PACKAGES)
    linter.visit(tree)
    return sorted(linter.findings,
                  key=lambda f: (f.where, f.check, f.message))


def lint_paths(paths: list[str] | None = None,
               root: str | None = None) -> list[Finding]:
    """Lint files and directories (recursively); default: ``src/repro``."""
    root = root or default_root()
    targets = paths or [root]
    files: list[str] = []
    for target in targets:
        if os.path.isdir(target):
            for dirpath, dirnames, filenames in os.walk(target):
                dirnames[:] = sorted(
                    d for d in dirnames if d != "__pycache__")
                files.extend(os.path.join(dirpath, name)
                             for name in sorted(filenames)
                             if name.endswith(".py"))
        else:
            files.append(target)
    findings: list[Finding] = []
    for path in files:
        findings.extend(lint_file(path, root=root))
    return findings


def main(argv: list[str] | None = None) -> int:
    """Console entry point (``repro-lint`` / ``python -m ...lint``)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="project-invariant lint over src/repro (stdlib only)")
    parser.add_argument("paths", nargs="*",
                        help="files/directories (default: src/repro)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    args = parser.parse_args(argv)
    findings = lint_paths(args.paths or None)
    if args.json:
        print(findings_to_json(findings, tool="lint"))
    else:
        print(render_findings(findings, tool="lint"))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
