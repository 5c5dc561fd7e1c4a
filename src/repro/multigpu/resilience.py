"""Resilient execution of distributed NTTs under injected faults.

:class:`ResilientNTTEngine` wraps any :class:`DistributedNTTEngine` and
turns the fault model of :mod:`repro.sim.faults` into the recovery
story a production multi-GPU deployment needs:

* **checkpoint** — before each transform the input vector is
  snapshotted to the host (:meth:`DistributedVector.checkpoint`), so
  any failed attempt can restart from identical data;
* **retry with backoff** — transient collective failures and detected
  shard corruption restore the checkpoint and re-run, up to
  :attr:`RetryPolicy.max_attempts` tries, with an exponential backoff
  priced in fabric latency units;
* **algebraic verification** — per-collective random-linear-probe
  checksums (enabled on the cluster) catch in-flight corruption with
  certainty, and an end-to-end probe checks the whole output against
  the checkpoint at random points as defense in depth;
* **ABFT leg verification** — with ``abft=True`` every transform leg is
  checked by an O(n) Freivalds probe (:mod:`repro.multigpu.abft`) that
  catches *silent compute corruption* the exchange checksums never see;
  a failed probe re-executes just the corrupted leg from the checkpoint
  (no backoff — the device is healthy, only the data was wrong) and
  localizes the corrupted device range once a clean copy exists;
* **graceful degradation** — on hard device death the engine re-shards
  the checkpoint onto the largest power-of-two subset of surviving
  GPUs, rebuilds itself there via its factory, and completes the
  transform bit-exactly.

Every recovery action costs time, and that time is *reported*: each
executed leg's phase profile, plus checkpoint/restore/backoff/reshard/
verification overhead phases, accumulates in a
:class:`ResilienceReport` whose :meth:`ResilienceReport.plan_cost`
prices the whole fault-laden run on a machine model.  Aborted attempts
are charged their full leg profile (a deliberate upper bound: the
failure point within the leg is not modeled), so a faulty run is always
strictly more expensive than a clean one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field

from repro.errors import (
    DeviceLostError, ResilienceError, ShardCorruptionError,
    SimulationError, TransientCommError,
)
from repro.field.prime_field import PrimeField
from repro.field.vector import vec_dot, vec_mul, vec_pow_series
from repro.hw.cost import CostBreakdown, CostModel, Phase, Step
from repro.hw.model import MachineModel
from repro.hw.plancost import PlanCost
from repro.multigpu.abft import AbftChecker, geometric_probe
from repro.multigpu.base import (
    DistributedNTTEngine, DistributedVector, VectorCheckpoint,
)
from repro.multigpu.layout import Layout
from repro.sim.cluster import SimCluster
from repro.sim.trace import TraceEvent

__all__ = ["RetryPolicy", "ResilienceReport", "ResilientNTTEngine"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry parameters for one resilient engine.

    Attributes
    ----------
    max_attempts:
        Total tries per transform (first attempt included).  Any
        recovery — retry or reshard — consumes one try; exhausting them
        raises :class:`~repro.errors.ResilienceError`.
    backoff_messages:
        Backoff before retry ``a`` is priced as
        ``backoff_messages * 2**(a-1)`` fabric latency units (the
        exponential-backoff schedule expressed in the cost model's
        message-latency currency), with the doubling capped at
        ``backoff_cap_doublings`` so a large ``max_attempts`` cannot
        overflow the schedule into astronomically priced waits.
    backoff_cap_doublings:
        Ceiling on the backoff exponent: retries past this many
        doublings all wait ``backoff_messages * 2**cap`` units (the
        standard truncated-exponential-backoff shape).
    verify_probes:
        Number of random points at which the end-to-end output probe
        checks the whole output against the checkpoint (0 disables
        the probe).
    """

    max_attempts: int = 3
    backoff_messages: int = 4
    backoff_cap_doublings: int = 10
    verify_probes: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SimulationError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_messages < 0 or self.verify_probes < 0:
            raise SimulationError(
                "backoff_messages and verify_probes must be >= 0")
        if self.backoff_cap_doublings < 0:
            raise SimulationError(
                f"backoff_cap_doublings must be >= 0, got "
                f"{self.backoff_cap_doublings}")

    def backoff_units(self, attempt: int) -> int:
        """Latency units charged before retry number ``attempt``.

        Truncated exponential backoff: the exponent grows with the
        attempt number but saturates at ``backoff_cap_doublings``.
        """
        doublings = min(attempt - 1, self.backoff_cap_doublings)
        return self.backoff_messages * (2 ** max(doublings, 0))


@dataclass
class ResilienceReport:
    """Accumulated cost and event counts of a resilient run.

    ``steps`` holds every executed leg's phase profile (successful and
    aborted) plus the overhead phases; pricing them in order gives the
    modeled wall time of the whole fault-laden run.
    """

    field: PrimeField
    steps: list[Step] = dataclass_field(default_factory=list)
    transforms: int = 0
    retries: int = 0
    reshards: int = 0
    checkpoints: int = 0
    verifications: int = 0
    wasted_attempts: int = 0
    gpu_counts: list[int] = dataclass_field(default_factory=list)

    def add(self, *steps: Step) -> None:
        self.steps.extend(steps)

    def breakdown(self, machine: MachineModel) -> CostBreakdown:
        """Price the accumulated phases on ``machine``."""
        return CostModel(machine, self.field).estimate(self.steps)

    def plan_cost(self, machine: MachineModel) -> PlanCost:
        """The run's cost in :class:`PlanCost` form (validates clean).

        Exchange time is whatever the breakdown attributes to fabric
        transfers; everything else (compute and memory, including the
        pipelined overlap) is folded into ``compute_s`` so the
        ``total = compute + exchange`` invariant holds exactly.
        """
        b = self.breakdown(machine)
        levels = {}
        if b.exchange_s:
            levels["multi-gpu"] = b.exchange_s
        return PlanCost(
            total_s=b.total_s,
            compute_s=b.total_s - b.exchange_s,
            exchange_s_by_level=levels,
            exchange_bytes_by_level=dict(b.exchange_bytes_by_level))

    def summary(self) -> dict[str, int]:
        """Sorted-key event counts for reports and tests."""
        return {
            "checkpoints": self.checkpoints,
            "reshards": self.reshards,
            "retries": self.retries,
            "transforms": self.transforms,
            "verifications": self.verifications,
            "wasted_attempts": self.wasted_attempts,
        }


class ResilientNTTEngine:
    """Fault-tolerant wrapper around a distributed NTT engine.

    ``engine_factory`` builds the wrapped engine for a given cluster —
    it is called once up front and again after every reshard, so the
    same decomposition options carry over to the degraded shape::

        engine = ResilientNTTEngine(
            cluster, lambda c: UniNTTEngine(c, tile=1024))

    The wrapper exposes the engine interface pieces the pipeline layer
    uses (``cluster``/``field``/``gpu_count``/``tile``, the layout
    queries, ``forward``/``inverse``), so it drops into
    :class:`~repro.multigpu.polynomial.DistributedPolynomial` unchanged.
    """

    name = "resilient"

    def __init__(self, cluster: SimCluster, engine_factory,
                 policy: RetryPolicy | None = None,
                 verify_exchanges: bool = True,
                 verify_output: bool = True,
                 abft: bool = False,
                 seed: int = 0):
        self.engine_factory = engine_factory
        self.engine = engine_factory(cluster)
        if not isinstance(self.engine, DistributedNTTEngine):
            raise SimulationError(
                "engine_factory must build a DistributedNTTEngine, got "
                f"{type(self.engine).__name__}")
        if self.engine.cluster is not cluster:
            raise SimulationError(
                "engine_factory must bind the engine to the cluster it "
                "is given")
        self.policy = policy if policy is not None else RetryPolicy()
        self.verify_exchanges = verify_exchanges
        self.verify_output = verify_output
        self.seed = seed
        cluster.checksum_exchanges = verify_exchanges
        cluster.checksum_seed = seed
        self.abft_checker = AbftChecker(cluster, seed=seed) if abft else None
        self.report = ResilienceReport(field=cluster.field)
        self.report.gpu_counts.append(cluster.gpu_count)
        self._transform_index = 0
        self.name = f"resilient[{self.engine.name}]"

    # -- engine interface delegation -----------------------------------------

    @property
    def cluster(self) -> SimCluster:
        return self.engine.cluster

    @property
    def field(self) -> PrimeField:
        return self.engine.field

    @property
    def gpu_count(self) -> int:
        return self.engine.gpu_count

    @property
    def tile(self) -> int:
        return self.engine.tile

    def input_layout(self, n: int) -> Layout:
        return self.engine.input_layout(n)

    def output_layout(self, n: int) -> Layout:
        return self.engine.output_layout(n)

    def estimate(self, machine: MachineModel, n: int,
                 inverse: bool = False) -> CostBreakdown:
        return self.engine.estimate(machine, n, inverse=inverse)

    def forward(self, vec: DistributedVector,
                coset_shift: int | None = None) -> DistributedVector:
        return self._run(False, vec, coset_shift)

    def inverse(self, vec: DistributedVector,
                coset_shift: int | None = None) -> DistributedVector:
        return self._run(True, vec, coset_shift)

    # -- the recovery loop ---------------------------------------------------

    def _run(self, inverse: bool, vec: DistributedVector,
             coset_shift: int | None) -> DistributedVector:
        n = vec.n
        direction = "inverse" if inverse else "forward"
        self._transform_index += 1
        self.report.transforms += 1
        ckpt = self._checkpoint(vec, n)
        attempt = 0
        while True:
            attempt += 1
            try:
                out = self._invoke(inverse, vec, coset_shift)
                if self.abft_checker is not None \
                        and not self._abft_verify(ckpt, out, inverse,
                                                  coset_shift, n):
                    self._waste(inverse, n)
                    if attempt >= self.policy.max_attempts:
                        raise ResilienceError(
                            f"{direction} transform kept failing its ABFT "
                            f"probe after {attempt} attempt(s)")
                    self._abft_reexec(n, direction)
                    vec = self._restore(ckpt, inverse, n)
                    continue
                if self.verify_output and self.policy.verify_probes:
                    self._probe(ckpt, out, inverse, coset_shift, n)
                break
            except (TransientCommError, ShardCorruptionError) as error:
                self._waste(inverse, n)
                if attempt >= self.policy.max_attempts:
                    raise ResilienceError(
                        f"{direction} transform failed after {attempt} "
                        f"attempt(s): {error}") from error
                self._retry(attempt, n, error)
                vec = self._restore(ckpt, inverse, n)
            except DeviceLostError as error:
                self._waste(inverse, n)
                if attempt >= self.policy.max_attempts:
                    raise ResilienceError(
                        f"{direction} transform lost a device and had no "
                        f"attempts left: {error}") from error
                self._reshard(n, error)
                vec = self._restore(ckpt, inverse, n)
        self.report.add(*self._leg_steps(inverse, n))
        return out

    def _invoke(self, inverse: bool, vec: DistributedVector,
                coset_shift: int | None) -> DistributedVector:
        method = self.engine.inverse if inverse else self.engine.forward
        if coset_shift is None:
            return method(vec)
        return method(vec, coset_shift=coset_shift)

    # -- checkpoint / restore ------------------------------------------------

    def _shard_bytes(self, n: int) -> int:
        return (n // self.gpu_count) * self.cluster.element_bytes

    def _checkpoint(self, vec: DistributedVector,
                    n: int) -> VectorCheckpoint:
        ckpt = vec.checkpoint()
        self.report.checkpoints += 1
        self.report.add(Phase(name="resilience-checkpoint",
                              mem_bytes=self._shard_bytes(n)))
        return ckpt

    def _restore(self, ckpt: VectorCheckpoint, inverse: bool,
                 n: int) -> DistributedVector:
        layout = self.output_layout(n) if inverse else self.input_layout(n)
        return DistributedVector.restore(self.cluster, ckpt, layout)

    # -- recovery actions ----------------------------------------------------

    def _waste(self, inverse: bool, n: int) -> None:
        """Charge one aborted attempt (full leg profile, upper bound)."""
        self.report.wasted_attempts += 1
        self.report.add(*self._leg_steps(inverse, n))

    def _retry(self, attempt: int, n: int, error: Exception) -> None:
        self.report.retries += 1
        units = self.policy.backoff_units(attempt)
        self.cluster.trace.record(TraceEvent(
            kind="retry", level="resilience",
            detail=(f"attempt={attempt} backoff={units} "
                    f"cause={type(error).__name__}")))
        self.report.add(
            Phase(name="resilience-backoff", messages=units),
            Phase(name="resilience-restore",
                  mem_bytes=self._shard_bytes(n)))

    def _reshard(self, n: int, error: Exception) -> None:
        cluster = self.cluster
        injector = cluster.injector
        if injector is None:
            raise ResilienceError(
                f"device lost but no fault injector installed: "
                f"{error}") from error
        survivors = injector.surviving_gpus(cluster.gpu_count)
        if not survivors:
            raise ResilienceError(
                "every GPU died; nothing to re-shard onto") from error
        new_g = 1 << (len(survivors).bit_length() - 1)
        old_g = cluster.gpu_count
        new_cluster = SimCluster(cluster.field, new_g,
                                 trace=cluster.trace, injector=injector)
        new_cluster.checksum_exchanges = cluster.checksum_exchanges
        new_cluster.checksum_seed = cluster.checksum_seed
        injector.acknowledge_deaths()
        self.engine = self.engine_factory(new_cluster)
        self.name = f"resilient[{self.engine.name}]"
        eb = new_cluster.element_bytes
        new_cluster.trace.record(TraceEvent(
            kind="reshard", level="resilience",
            max_bytes_per_gpu=(n // new_g) * eb, total_bytes=n * eb,
            detail=f"gpus {old_g}->{new_g} after "
                   f"{type(error).__name__}"))
        self.report.reshards += 1
        self.report.gpu_counts.append(new_g)
        self.report.add(Phase(name="resilience-reshard",
                              exchange_bytes=(n // new_g) * eb,
                              messages=old_g))

    # -- verification --------------------------------------------------------

    def _abft_verify(self, ckpt: VectorCheckpoint, out: DistributedVector,
                     inverse: bool, coset_shift: int | None,
                     n: int) -> bool:
        """Freivalds-check the whole leg; True means the output is clean.

        The checker's priced steps (probe build on a ledger miss, the
        probe itself, localization after a repair) fold into the report
        either way.
        """
        checker = self.abft_checker
        assert checker is not None
        checker.cluster = self.cluster  # reshard may have rebuilt it
        direction = "inverse" if inverse else "forward"
        verdict = checker.verify_leg(
            inputs=list(ckpt.values), outputs=out.to_values(), n=n,
            inverse=inverse, coset_shift=coset_shift,
            out_layout=out.layout,
            detail=f"resilient-{direction}-{self._transform_index}")
        self.report.add(*verdict.steps)
        return verdict.ok

    def _abft_reexec(self, n: int, direction: str) -> None:
        """Restore the checkpoint and charge the leg re-execution.

        Unlike :meth:`_retry` there is no backoff: the device produced a
        wrong value but is otherwise live, so the leg restarts
        immediately from the host checkpoint.
        """
        checker = self.abft_checker
        assert checker is not None
        checker.record_reexecution(detail=f"resilient-{direction}")
        self.report.add(Phase(name="abft-reexec-restore",
                              mem_bytes=self._shard_bytes(n)))

    def _probe(self, ckpt: VectorCheckpoint, out: DistributedVector,
               inverse: bool, coset_shift: int | None, n: int) -> None:
        """Check the whole output against the checkpoint at random points.

        Both directions satisfy ``Y[k] == sum_j x[j] * (shift * w^k)^j``
        (forward: ``x`` checkpointed, ``Y`` output; inverse: the other
        way around).  A probe folds all n identities at a random ``z``
        with ``z^n != 1`` (the geometric series over ``k``)::

            sum_k z^k Y[k] == (z^n - 1) sum_j x[j] shift^j / (z w^j - 1)

        which is ABFT's geometric Freivalds probe at ``t = z``
        (:func:`repro.multigpu.abft.geometric_probe`), two dot products
        over the powers of ``z`` and the weights.  The sides differ by
        a polynomial of degree < n in ``z``, zero only if every ``Y[k]``
        is right, so a wrong output passes a probe with probability
        about ``(n-1)/p`` at most.
        """
        fld = self.field
        p = fld.modulus
        shift = 1 if coset_shift is None else coset_shift % p
        if inverse:
            coeffs, spectrum = out.to_values(), list(ckpt.values)
        else:
            coeffs, spectrum = list(ckpt.values), out.to_values()
        rng = random.Random(
            repr((self.seed, "probe", self._transform_index)))
        self.report.verifications += 1
        self.cluster.trace.record(TraceEvent(
            kind="verify", level="resilience",
            detail=f"output-probe x{self.policy.verify_probes}"))
        root = fld.root_of_unity(n)
        numerators = vec_mul(fld, coeffs, vec_pow_series(fld, shift, n))
        # Priced as series and numerators once (3n), then per probe the
        # fold of the output, the denominators, one batch inversion
        # and the dot product (6n).
        muls = 3 * n
        for _ in range(self.policy.verify_probes):
            z = rng.randrange(p)
            while pow(z, n, p) == 1:
                z = rng.randrange(p)
            powers, weights = geometric_probe(fld, z, root, n)
            folded = vec_dot(fld, powers, spectrum)
            expected = vec_dot(fld, weights, numerators)
            muls += 6 * n
            if folded != expected:
                # One detection per fired compute fault, the pairing
                # the trace audit (trace.undetected-corruption) checks.
                claim = getattr(self.cluster.injector,
                                "claim_compute_faults", None)
                for label in claim() if claim else ():
                    self.cluster.trace.record(TraceEvent(
                        kind="abft-detect", level="resilience",
                        detail=f"output-probe fault={label}"))
                raise ShardCorruptionError(
                    f"output probe failed at z={z}: the output folds to "
                    f"{folded}, the checkpoint to {expected}")
        self.report.add(Phase(name="resilience-verify", field_muls=muls))

    # -- pricing helpers -----------------------------------------------------

    def _leg_steps(self, inverse: bool, n: int) -> list[Step]:
        """One attempt's phase profile plus any degradation penalty."""
        profile = self.engine.inverse_profile(n) if inverse \
            else self.engine.forward_profile(n)
        steps: list[Step] = list(profile)
        injector = self.cluster.injector
        if injector is not None:
            penalty = injector.drain_penalty_bytes()
            if penalty:
                steps.append(Phase(
                    name="degraded-fabric",
                    exchange_bytes=max(penalty // self.gpu_count, 1)))
        return steps
