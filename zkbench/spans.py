"""Per-layer spans for the traced benchmark run, recorded from outside.

A span names one layer of the ``repro`` package and the public
functions and methods that enter it.  :class:`Tracer` wraps every
target with a timing shim and rebinds each ``from X import f`` alias
that loaded ``repro.*`` modules hold, so calls made through an alias are
timed too.  :meth:`Tracer.disable` puts every original back, which lets
the benchmark alternate traced and untraced operations in one process.

Each span accumulates *self* seconds (its wall time minus the time its
nested spans covered) and a call count.  The operation itself is the
root: its self time is the ``unattributed`` remainder, so the span self
times plus that remainder add up to the traced operation time.

A target that no longer exists (renamed or deleted by a later change)
is recorded in :attr:`Tracer.missing` and skipped; the span then reads
zero instead of breaking the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable

#: The benchmark's clusters have 8 GPUs, so their cross transforms are
#: 8-point; radix-2 calls on longer vectors (serve's smallest requests
#: are 256-point) are local, whole-device transforms.
CROSS_MAX_POINTS = 8


@dataclass(frozen=True)
class Span:
    """One layer: a metric stem and the ``module:qualname`` targets it wraps.

    ``max_points`` splits a transform target shared by two spans: a call
    whose vector (second positional argument) has at most that many
    points goes to this span, any other call to the span on the same
    target without a limit.
    """

    name: str
    targets: tuple[str, ...]
    max_points: int | None = None


#: Marks a class attribute that was inherited, not defined on the class.
_ABSENT = object()

_POLY = "repro.multigpu.polynomial:DistributedPolynomial."
_CLUSTER = "repro.sim.cluster:SimCluster."

SPANS: tuple[Span, ...] = (
    Span("zkp.quotient", ("repro.zkp.qap:QAP.witness_polynomials",)),
    Span("zkp.is_satisfied", ("repro.zkp.r1cs:R1CS.is_satisfied",)),
    Span("zkp.witness_rows", ("repro.zkp.qap:QAP.witness_rows",)),
    Span("field.pack", ("repro.field.packed:pack_values",)),
    Span("field.unpack", ("repro.field.packed:unpack_values",
                          "repro.field.packed:host_list")),
    Span("field.pointwise", (
        "repro.field.packed:fused_mul_sub_scale",
        "repro.field.vector:vec_mul", "repro.field.vector:vec_scale",
        "repro.field.vector:vec_add", "repro.field.vector:vec_sub",
        _POLY + "__mul__", _POLY + "__sub__", _POLY + "__add__")),
    # TwiddleCache.powers is left out on purpose: the cross transforms
    # call it thousands of times per op for a cache hit that costs less
    # than the span wrapper would; hits stay in the caller's self time.
    Span("field.twiddle", (
        "repro.field.vector:vec_pow_series",
        "repro.ntt.twiddle:TwiddleCache.forward",
        "repro.ntt.twiddle:TwiddleCache.inverse",
        "repro.ntt.twiddle:TwiddleCache.packed_powers")),
    Span("ntt.ntt", ("repro.field.packed:packed_ntt",)),
    Span("ntt.intt", ("repro.field.packed:packed_intt",)),
    Span("ntt.coset_ntt", ("repro.field.packed:packed_coset_ntt",)),
    Span("ntt.coset_intt", ("repro.field.packed:packed_coset_intt",)),
    Span("ntt.cross", ("repro.ntt.radix2:ntt", "repro.ntt.radix2:intt"),
         max_points=CROSS_MAX_POINTS),
    Span("ntt.local", ("repro.ntt.radix2:ntt", "repro.ntt.radix2:intt")),
    Span("multigpu.engine", (
        "repro.multigpu.unintt:UniNTTEngine.forward",
        "repro.multigpu.unintt:UniNTTEngine.inverse")),
    Span("multigpu.relayout", ("repro.multigpu.base:redistribute",)),
    Span("multigpu.stage", (
        "repro.multigpu.base:DistributedVector.from_values",
        "repro.multigpu.base:DistributedVector.to_values",
        _CLUSTER + "load_shards", _CLUSTER + "peek_shards")),
    Span("multigpu.poly_self", (
        _POLY + "from_evaluations", _POLY + "from_coefficients",
        _POLY + "to_evaluations", _POLY + "to_coefficients",
        _POLY + "values")),
    Span("multigpu.exchange_counts", ("repro.multigpu.base:exchange_counts",)),
    Span("multigpu.batch_ntt", (
        "repro.multigpu.batch_engine:BatchedDistributedNTT.forward",
        "repro.multigpu.batch_engine:BatchedDistributedNTT.inverse")),
    Span("multigpu.abft", ("repro.multigpu.abft:AbftChecker.verify_leg",)),
    Span("sim.all_to_all", (_CLUSTER + "all_to_all",)),
    Span("sim.charge", (_CLUSTER + "charge_all_to_all",
                        _CLUSTER + "charge_local")),
    Span("serve.vectors", ("repro.serve.request:ProofRequest.vectors",)),
    Span("serve.journal", ("repro.serve.durability:WriteAheadJournal.append",)),
    Span("serve.plan", ("repro.serve.cache:PlanCache.choose",)),
    Span("serve.twiddle", ("repro.serve.cache:TwiddleLedger.prepare",)),
    Span("runtime.loop", ("repro.runtime.loop:EventLoop.schedule",
                          "repro.runtime.loop:EventLoop.pop_next")),
    Span("analysis.verify", ("repro.analysis.plancheck:verify_schedule",)),
    Span("analysis.interp", ("repro.analysis.interp:interpret_schedule",)),
)


def _resolve(target: str):
    """``(owner, attribute, raw)`` for a target, or ``None`` if it is gone.

    ``raw`` is the object as stored in the owner's namespace (for a
    method, the class ``__dict__`` entry, so ``classmethod`` and
    ``staticmethod`` wrappers are seen as such).
    """
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attribute in klass.__dict__:
                return owner, attribute, klass.__dict__[attribute]
        return None
    raw = getattr(owner, attribute, None)
    return None if raw is None else (owner, attribute, raw)


class Tracer:
    """Installs span wrappers and accumulates per-span self time."""

    def __init__(self, spans: tuple[Span, ...] = SPANS):
        self.spans = spans
        # Per span: [self seconds, calls].
        self._totals = {span.name: [0.0, 0] for span in spans}
        self.missing: list[str] = []
        # _stack[-1] accumulates the wall time of spans nested directly
        # inside the innermost open span; _stack[0] belongs to the op.
        self._stack: list[float] = [0.0]
        self._sites: list[tuple[object, str, object, object]] = []
        self._enabled = False
        self._build()

    @property
    def self_s(self) -> dict[str, float]:
        return {name: total[0] for name, total in self._totals.items()}

    @property
    def calls(self) -> dict[str, int]:
        return {name: total[1] for name, total in self._totals.items()}

    # -- installation --------------------------------------------------------

    def _build(self) -> None:
        routes: dict[str, list[Span]] = {}
        for span in self.spans:
            for target in span.targets:
                routes.setdefault(target, []).append(span)
        for target, spans in routes.items():
            found = _resolve(target)
            if found is None:
                self.missing.extend(f"{span.name}:{target}" for span in spans)
                continue
            owner, attribute, raw = found
            kind = type(raw) if isinstance(
                raw, (classmethod, staticmethod)) else None
            func = raw.__func__ if kind is not None else raw
            wrapper = self._wrap(func, spans)
            installed = kind(wrapper) if kind is not None else wrapper
            # On a class, restoring re-installs the original entry (or
            # drops the shadowing one if the method was inherited).
            original = owner.__dict__.get(attribute, _ABSENT) \
                if isinstance(owner, type) else raw
            self._sites.append((owner, attribute, original, installed))
            if not isinstance(owner, type):
                self._sites.extend(
                    (module, name, raw, installed)
                    for module, name in _aliases(raw, owner, attribute))

    def _wrap(self, func, spans: list[Span]):
        stack = self._stack
        push, pop, clock = stack.append, stack.pop, time.perf_counter
        unlimited = [s for s in spans if s.max_points is None]
        limited = [s for s in spans if s.max_points is not None]
        if len(unlimited) != 1 or len(limited) > 1:
            raise ValueError(
                f"{func.__qualname__}: needs one span without max_points "
                f"and at most one with it")
        whole = self._totals[unlimited[0].name]
        small = self._totals[limited[0].name] if limited else None
        limit = limited[0].max_points if limited else 0

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            total = whole
            if small is not None and len(
                    args[1] if len(args) > 1 else kwargs["values"]) <= limit:
                total = small
            push(0.0)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = pop()
                stack[-1] += elapsed
                total[0] += elapsed - nested
                total[1] += 1

        return wrapper

    def enable(self) -> None:
        """Install every wrapper (idempotent)."""
        if not self._enabled:
            for owner, attribute, _, installed in self._sites:
                setattr(owner, attribute, installed)
            self._enabled = True

    def disable(self) -> None:
        """Restore every original (idempotent)."""
        if self._enabled:
            for owner, attribute, original, _ in reversed(self._sites):
                if original is _ABSENT:
                    delattr(owner, attribute)
                else:
                    setattr(owner, attribute, original)
            self._enabled = False

    # -- measurement ---------------------------------------------------------

    def run(self, op: Callable[[], object]) -> tuple[object, float, float]:
        """Run ``op`` traced: ``(result, total seconds, unattributed s)``."""
        if len(self._stack) != 1:
            raise RuntimeError("span stack is unbalanced")
        self._stack[0] = 0.0
        self.enable()
        try:
            start = time.perf_counter()
            result = op()
            total = time.perf_counter() - start
        finally:
            self.disable()
        return result, total, total - self._stack[0]


def _aliases(func, home, attribute: str):
    """Every ``(module, name)`` other than ``home.attribute`` bound to
    ``func`` in a loaded ``repro`` module."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for name, value in list(vars(module).items()):
            if value is func and not (module is home and name == attribute):
                yield module, name
