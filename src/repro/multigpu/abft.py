"""Algorithm-based fault tolerance (ABFT) for distributed NTT legs.

The NTT is linear: ``Y = W x`` with ``W[k][j] = (shift * w^k)^j`` for
the (coset) forward transform.  Freivalds' trick verifies a whole
transform leg with two dot products: pick a probe vector ``r`` and
check

    ``r . Y  ==  (W^T r) . x``

If the leg is correct the sides match identically; if *any* element of
the output (or any intermediate the output depends on) was silently
corrupted, they differ unless ``r`` is orthogonal to the error vector —
probability ``< n / p`` for the geometric probes used here, i.e. never
in practice for the 64..255-bit ZKP fields.

The geometric structure makes the check nearly free.  With
``r[k] = t^k`` for a random ``t`` (rejecting ``t^n == 1``), the
transformed probe has the closed form

    ``(W^T r)[j] = sum_k (t * w^j)^k = (t^n - 1) / (t * w^j - 1)``

so both the probe and its transform are built in O(n) (one batch
inversion), once per process for each ``(field, n, direction, seed)``,
and priced per ``(field, n, direction)`` in a :class:`ProbeLedger` —
the :class:`~repro.serve.cache.TwiddleLedger` pattern with the same
hit/miss accounting — and each verification costs two length-n dot
products, data-parallel across the cluster's devices
(``~3 n / G`` multiplies per GPU plus one tiny reduction).  A coset
shift folds in at check time: the weights are multiplied by the
``shift^j`` series before the ``x``-side dot product.

Both directions verify the same forward relation: a forward leg has
``x`` in the checkpoint and ``Y`` in the output; an inverse leg has
``Y`` in the checkpoint and ``x`` in the output.  The freshly computed
side is accumulated as *per-device partial sums* under its layout, so
when a probe mismatches and the leg is re-executed cleanly, the
corrupted partials can be binary-searched against the clean ones to
localize the device range holding corrupted output
(:meth:`AbftChecker` records an ``abft-localize`` event; note the
attribution is in the *output* layout — post-exchange, the device
holding corrupted data may differ from the device that computed it
wrong).

Detection bookkeeping pairs 1:1 with injection: on a mismatch the
checker claims every fired-but-undetected compute fault from the
:class:`~repro.sim.faults.FaultInjector` and records one
``abft-detect`` trace event per claimed fault, which is exactly the
invariant the ``trace.undetected-corruption`` rule audits.  Every
probe, detection, localization, and re-execution is charged to the
device counters and returned as :class:`~repro.hw.cost.Phase` steps so
callers fold the overhead into a validating
:class:`~repro.hw.plancost.PlanCost`.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Sequence

from repro.errors import SimulationError
from repro.field.prime_field import PrimeField
from repro.field.vector import (
    vec_dot, vec_inv, vec_mul, vec_pow_series, vec_sub,
)
from repro.hw.cost import Phase, Step
from repro.field.packed import RowDotTable
from repro.multigpu.layout import Layout
from repro.ntt.batch import LaneRow
from repro.sim.trace import TraceEvent

__all__ = ["ProbeVector", "ProbeLedger", "AbftVerdict", "AbftChecker",
           "geometric_probe"]


@dataclass(frozen=True)
class ProbeVector:
    """One cached Freivalds probe for a ``(field, n, direction)`` shape.

    ``r_powers[k] = t^k`` is the probe applied to the spectral side;
    ``weights[j] = (t^n - 1) / (t * w^j - 1)`` is its transform
    ``W^T r`` applied to the coefficient side.  Both are kept as
    :class:`~repro.field.packed.RowDotTable` s (``r_table``,
    ``weight_table``): the fixed-width words a check on packed lanes
    reads, decoded to ints only for a list check.
    """

    field_name: str
    n: int
    direction: str
    t: int
    r_table: RowDotTable
    weight_table: RowDotTable

    @property
    def r_powers(self) -> tuple[int, ...]:
        return self.r_table.values

    @property
    def weights(self) -> tuple[int, ...]:
        return self.weight_table.values


def _build_probe(field: PrimeField, n: int, direction: str,
                 seed: int) -> ProbeVector:
    """The probe for one shape, built once per process.

    A probe is immutable and depends only on the memo key, so every
    ledger shares it; each ledger still prices its own first use.
    """
    return _memo_probe(field, field.name, field.root_of_unity(n), n,
                       direction, seed)


@functools.lru_cache(maxsize=32)
def _memo_probe(field: PrimeField, name: str, w: int, n: int,
                direction: str, seed: int) -> ProbeVector:
    # ``name`` and ``w`` key what field equality (by modulus) leaves
    # out: the name seeds the draw, the generator fixes the root.
    p = field.modulus
    rng = random.Random(repr((seed, "abft", name, n, direction)))
    while True:
        t = rng.randrange(2, p)
        # t^n == 1 would make some denominator t*w^j - 1 vanish (t is
        # then an inverse root power) and blind the probe to structured
        # errors; p >> n so rejection is essentially free.
        if pow(t, n, p) != 1:
            break
    r, weights = geometric_probe(field, t, w, n)
    return ProbeVector(field_name=name, n=n, direction=direction,
                       t=t, r_table=RowDotTable(field, r),
                       weight_table=RowDotTable(field, weights))


def geometric_probe(field: PrimeField, t: int, w: int,
                    n: int) -> tuple[list[int], list[int]]:
    """The geometric Freivalds probe at ``t`` (``t^n != 1``), unmemoized.

    Returns the powers ``t^k`` and the weights ``(t^n - 1) / (t w^j -
    1)`` for a size-``n`` transform with root ``w``, so that ``sum_k
    t^k Y[k] == sum_j weights[j] x[j]`` whenever ``Y[k] = sum_j x[j]
    w^(kj)``.
    """
    p = field.modulus
    # weights[j] = 1 / d[j] with d[j] = (t * w^j - 1) / (t^n - 1): the
    # numerator folds into the series' start and the subtrahend, and
    # one batch inversion (Montgomery's trick inside vec_inv: one field
    # inversion total) yields the weights.
    tn_inv = field.inv(pow(t, n, p) - 1)
    d = vec_sub(field, vec_pow_series(field, w, n, start=t * tn_inv),
                [tn_inv] * n)
    return vec_pow_series(field, t, n), vec_inv(field, d)


def _probe_dot(field: PrimeField, table: RowDotTable, side) -> int:
    """``table . side`` for one leg side: a list, or a packed lane.

    A :class:`~repro.ntt.batch.LaneRow` takes its value from its
    block's one row dot per table
    (:meth:`~repro.ntt.batch.LaneBlock.dots`), so checking every lane
    of a batched kernel costs one row dot per side, not one list dot
    per lane.
    """
    if isinstance(side, LaneRow):
        return side.dot(table)
    return vec_dot(field, table.values, side)


class ProbeLedger:
    """Priced probe residency, one entry per ``(field, n, direction)``.

    The :class:`~repro.serve.cache.TwiddleLedger` pattern: ``prepare``
    returns the cached probe plus the build phase that shape owes —
    ``None`` on a hit, an O(n) ``field_muls`` phase on a miss — and
    counts hits/misses so reports show what probe reuse bought.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._probes: dict[tuple[str, int, str], ProbeVector] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._probes)

    def shapes(self) -> tuple[tuple[str, int, str], ...]:
        """Shapes ever prepared, sorted (for snapshots and tests)."""
        return tuple(sorted(self._probes))

    def prepare(self, field: PrimeField, n: int, direction: str,
                ) -> tuple[ProbeVector, Phase | None, bool]:
        """Return ``(probe, build_phase, hit)`` for one shape."""
        if n < 2 or n & (n - 1):
            raise SimulationError(
                f"probe size must be a power of two >= 2, got {n}")
        key = (field.name, n, direction)
        probe = self._probes.get(key)
        if probe is not None:
            self.hits += 1
            return probe, None, True
        self.misses += 1
        probe = _build_probe(field, n, direction, self.seed)
        self._probes[key] = probe
        # Priced as the textbook build: powers of t (n muls) +
        # denominators (n) + batch inversion (~3n) + final scale (n),
        # ~6n multiplies once per shape.  (The host build folds the
        # scale into the denominator series: ~5n.)
        return probe, Phase(name="abft-probe-build", field_muls=6 * n), False

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "resident": len(self._probes)}


@dataclass(frozen=True)
class AbftVerdict:
    """Outcome of one leg verification.

    ``steps`` carries the priced overhead phases (probe build on a
    ledger miss, the probe itself, localization); ``detections`` the
    claimed fault labels on a mismatch; ``devices`` the localized
    output-device indices (filled on the *clean* verification following
    a repaired leg, when the stashed corrupted partials can be compared
    against known-good ones).
    """

    ok: bool
    steps: tuple[Step, ...] = ()
    detections: tuple[str, ...] = ()
    devices: tuple[int, ...] = ()


class AbftChecker:
    """Leg-level Freivalds verification bound to one cluster.

    The checker charges every probe to the device counters, records
    ``abft-*`` trace events, claims fired compute faults from the
    cluster's injector on detection (1:1 fault/detect pairing), and
    hands back priced phases so callers fold the overhead into their
    cost reports.  ``max_attempts`` bounds re-execution loops built on
    top of :meth:`verify_leg` (the packed polynomial path and the
    serving layer use it; the resilient engine uses its own
    :class:`~repro.multigpu.resilience.RetryPolicy` bound).
    """

    def __init__(self, cluster, ledger: ProbeLedger | None = None,
                 seed: int = 0, max_attempts: int = 3):
        if max_attempts < 1:
            raise SimulationError(
                f"max_attempts must be >= 1, got {max_attempts}")
        self.cluster = cluster
        self.ledger = ledger if ledger is not None else ProbeLedger(seed)
        self.max_attempts = max_attempts
        self.probes = 0
        self.detections = 0
        self.localizations = 0
        self.reexecutions = 0
        self._corrupted_partials: list[int] | None = None

    # -- verification --------------------------------------------------------

    def verify_leg(self, *, inputs: Sequence[int], outputs: Sequence[int],
                   n: int, inverse: bool, coset_shift: int | None = None,
                   out_layout: Layout | None = None,
                   detail: str = "") -> AbftVerdict:
        """Check one transform leg; returns the verdict with priced steps.

        ``inputs`` are the leg's (trusted) input values in logical
        order, ``outputs`` the freshly computed values: lists, or (for
        a lane of a batched kernel) :class:`~repro.ntt.batch.LaneRow`
        views over the words of its operand and result, whose probe
        sums come from one row dot per side for the whole kernel.
        ``out_layout`` maps logical output indices onto devices for the
        per-device partial sums that feed localization; pass ``None``
        when device attribution is meaningless (e.g. whole-vector serve
        lanes).
        """
        if len(inputs) != n or len(outputs) != n:
            raise SimulationError(
                f"abft: expected {n} values, got {len(inputs)} inputs / "
                f"{len(outputs)} outputs")
        field = self.cluster.field
        p = field.modulus
        direction = "inverse" if inverse else "forward"
        probe, build_phase, _hit = self.ledger.prepare(field, n, direction)
        steps: list[Step] = []
        if build_phase is not None:
            steps.append(build_phase)
        # Both directions verify Y = Wx: forward computes Y, inverse
        # computes x.  The freshly computed side gets the per-device
        # partials.
        if inverse:
            x, y = outputs, inputs
        else:
            x, y = inputs, outputs
        shift = 1 if coset_shift is None else coset_shift % p
        r = probe.r_table

        partials: list[int] | None = None
        owned = None if out_layout is None else out_layout.shard_indices()
        if not inverse and owned is not None:
            partials = [vec_dot(field, [r.values[k] for k in indices],
                                [y[k] for k in indices])
                        for indices in owned]
            lhs = sum(partials) % p
        else:
            lhs = _probe_dot(field, r, y)

        weights = probe.weight_table if shift == 1 else RowDotTable(
            field, vec_mul(field, probe.weights,
                           vec_pow_series(field, shift, n)))
        if inverse and owned is not None:
            partials = [vec_dot(field, [weights.values[j] for j in indices],
                                [x[j] for j in indices])
                        for indices in owned]
            rhs = sum(partials) % p
        else:
            rhs = _probe_dot(field, weights, x)

        ok = lhs == rhs
        steps.append(self._charge_probe(n, shift != 1, ok, detail))
        if not ok:
            labels = self._claim_faults()
            for label in labels:
                self.detections += 1
                self.cluster.trace.record(TraceEvent(
                    kind="abft-detect", level="resilience",
                    detail=f"{detail} fault={label}".strip()))
            if partials is not None:
                self._corrupted_partials = list(partials)
            return AbftVerdict(ok=False, steps=tuple(steps),
                               detections=labels)
        devices: tuple[int, ...] = ()
        if self._corrupted_partials is not None and partials is not None \
                and len(self._corrupted_partials) == len(partials):
            devices, localize_step = self._localize(partials, detail)
            steps.append(localize_step)
        self._corrupted_partials = None
        return AbftVerdict(ok=True, steps=tuple(steps), devices=devices)

    def record_reexecution(self, detail: str = "") -> None:
        """Count and trace one re-execution of a corrupted leg."""
        self.reexecutions += 1
        self.cluster.trace.record(TraceEvent(
            kind="abft-reexec", level="resilience", detail=detail))

    def summary(self) -> dict[str, int]:
        """Sorted-key verification counters for reports and tests."""
        return {
            "detections": self.detections,
            "localizations": self.localizations,
            "probe_hits": self.ledger.hits,
            "probe_misses": self.ledger.misses,
            "probes": self.probes,
            "reexecutions": self.reexecutions,
        }

    # -- internals -----------------------------------------------------------

    def _claim_faults(self) -> tuple[str, ...]:
        injector = self.cluster.injector
        if injector is not None \
                and hasattr(injector, "claim_compute_faults"):
            labels = injector.claim_compute_faults()
            if labels:
                return labels
        # A mismatch with no fired compute fault to claim: either a
        # genuine numeric bug or corruption injected outside the local
        # hook.  Still record one detection so the mismatch is visible.
        return ("unattributed",)

    def _charge_probe(self, n: int, coset: bool, ok: bool,
                      detail: str) -> Phase:
        """Charge the two dot products, data-parallel across devices.

        The per-device partial sums reduce to one ``g``-word exchange.
        That payload rides the leg's closing synchronization (the
        checkpoint ack / next dispatch fence that already flies), so
        the probe charges its bytes on the wire but no new
        latency-bound round trip — ``messages=0``.  At small n the
        transform itself is latency-dominated, and a dedicated probe
        message would triple-count sync latency the leg already paid;
        folding checksum words into an existing collective is the
        standard ABFT trick and what keeps verification under the F27
        overhead budget.
        """
        g = self.cluster.gpu_count
        eb = self.cluster.element_bytes
        per_gpu = -(-n // g)
        muls = 3 * per_gpu + g  # both dot products + partial reduction
        if coset:
            muls += per_gpu  # the running shift^j factor
        mem = 2 * per_gpu * eb  # each side streamed once
        for gpu in self.cluster.gpus:
            gpu.charge_compute(muls, mem)
        self.probes += 1
        self.cluster.trace.record(TraceEvent(
            kind="abft-probe", level="resilience",
            max_bytes_per_gpu=mem, total_bytes=mem * g,
            field_muls=muls * g,
            detail=f"{detail} {'ok' if ok else 'mismatch'}".strip()))
        return Phase(name="abft-probe", field_muls=muls, mem_bytes=mem,
                     exchange_bytes=g * eb, messages=0)

    def _localize(self, clean: list[int],
                  detail: str) -> tuple[tuple[int, ...], Phase]:
        """Binary-search corrupted vs clean per-device partial sums.

        O(k log G) range-sum comparisons for k corrupted devices; the
        stashed partials came from the failing probe, the clean ones
        from the verification that just passed on the re-executed leg.
        """
        corrupted = self._corrupted_partials
        assert corrupted is not None
        p = self.cluster.field.modulus
        compares = 0

        def search(lo: int, hi: int) -> list[int]:
            nonlocal compares
            compares += 1
            if sum(corrupted[lo:hi]) % p == sum(clean[lo:hi]) % p:
                return []
            if hi - lo == 1:
                return [lo]
            mid = (lo + hi) // 2
            return search(lo, mid) + search(mid, hi)

        devices = tuple(search(0, len(clean)))
        self.localizations += 1
        self.cluster.trace.record(TraceEvent(
            kind="abft-localize", level="resilience",
            detail=(f"{detail} devices={list(devices)} "
                    f"compares={compares}").strip()))
        return devices, Phase(name="abft-localize",
                              field_muls=len(clean), messages=1)
