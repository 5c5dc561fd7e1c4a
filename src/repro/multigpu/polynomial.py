"""Distributed polynomials: the user-facing pipeline API.

ZKP pipelines chain interpolations, pointwise algebra, and evaluations;
done naively each step costs transposes.  :class:`DistributedPolynomial`
tracks which *form* (coefficient / evaluation) and which *layout* the
data is in, performs pointwise work wherever the data already lives
(zero communication), and only transforms when the algebra demands it —
the programming model the overhead-free decomposition enables.

Each polynomial owns its shards (the cluster's devices are used as the
execution engine, not as storage residency), so several polynomials
coexist and combine.

Polynomials come in two interchangeable currencies.  The list currency
is the reference: each shard is a ``list[int]`` and transforms run
through the engine's materialized phases.  The *packed* currency keeps
the whole polynomial resident as **one** backend-native array in
natural order (``uint64`` lanes, or the ``(L, n)`` limb planes the big
ZKP fields use): transforms feed that array straight to
:mod:`repro.field.packed` (bit-identical to the engine — UniNTT *is*
the full-size transform, just distributed), each pointwise leg is one
backend lane call over the whole array, and every phase charges the
cluster **exactly** what the materialized path would (the exchanges are
priced through :func:`repro.multigpu.base.exchange_counts` +
:meth:`repro.sim.cluster.SimCluster.charge_all_to_all`).  Its per-GPU
:attr:`~DistributedPolynomial.shards` are derived on demand with the
layout's own :meth:`~repro.multigpu.layout.Layout.shard_indices`, the
same derived map the list currency distributes and collects with.  The
packed path declines — falling back to lists transparently — when fault
injection or exchange checksums are active, since those need real
per-message data on the wire.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import PartitionError, ResilienceError
from repro.field.packed import (
    host_list, pack_stats, pack_values, packed_coset_intt, packed_coset_ntt,
    packed_intt, packed_ntt, packed_ops,
)
from repro.field.prime_field import PrimeField
from repro.field.vector import vec_add, vec_mul, vec_sub
from repro.multigpu.base import (
    DistributedVector, VectorCheckpoint, exchange_counts,
)
from repro.multigpu.layout import Layout, collect, distribute
from repro.multigpu.schedule import LocalOp
from repro.multigpu.unintt import UniNTTEngine
from repro.ntt.twiddle import default_cache
from repro.sim.trace import TraceEvent

__all__ = ["DistributedPolynomial"]

_COEFF = "coefficient"
_EVAL = "evaluation"


def _is_packed(values) -> bool:
    """Packed arrays are recognized by duck type, not by importing numpy."""
    return getattr(values, "ndim", None) is not None


@lru_cache(maxsize=32)
def _layout_indices(layout: Layout) -> tuple:
    """Per-GPU gather indices of ``layout`` (packed shards), as arrays."""
    import numpy as np

    return tuple(np.asarray(indices, dtype=np.intp)
                 for indices in layout.shard_indices())


def _packed_engine_ops(engine: UniNTTEngine, n: int):
    """Lane ops iff ``engine`` may run the resident packed path for n.

    ``None`` routes the caller to the materialized list path: the
    backend has no lane kernels (or packed execution is disabled), the
    size is below the crossover or the UniNTT G^2 floor, the engine is
    not UniNTT (other engines have no program to charge), or
    chaos instrumentation (fault injector / exchange checksums) needs
    real messages on the wire.  A *compute-only* fault plan is the
    exception: its corruption targets local results, which the packed
    path replays onto its output shards deterministically
    (:meth:`DistributedPolynomial._replay_compute_faults`), so it keeps
    the resident currency.
    """
    if not isinstance(engine, UniNTTEngine):
        return None
    cluster = engine.cluster
    injector = cluster.injector
    if injector is not None and not (
            hasattr(injector, "compute_only") and injector.compute_only()):
        return None
    if cluster.checksum_exchanges:
        return None
    if n < cluster.gpu_count * cluster.gpu_count:
        return None
    return packed_ops(engine.field, n)


class DistributedPolynomial:
    """A degree < n polynomial sharded over a simulated cluster."""

    def __init__(self, engine: UniNTTEngine, shards: list | None,
                 form: str, coset_shift: int | None = None, *,
                 resident=None):
        """``shards``: one ``list[int]`` per GPU (the list currency);
        or ``None`` with ``resident``, the packed currency's one
        natural-order backend array, which the polynomial then owns."""
        if form not in (_COEFF, _EVAL):
            raise PartitionError(f"unknown form {form!r}")
        self.engine = engine
        self.form = form
        self.coset_shift = coset_shift
        self._shards = shards
        self._resident = resident
        self.packed = resident is not None
        if self.packed:
            self.n = resident.shape[-1]
        else:
            self.n = sum(len(s) for s in shards)

    @property
    def shards(self) -> list:
        """Per-GPU shards under the current form's layout.

        The list currency's own lists; for the packed currency, fresh
        per-GPU arrays gathered from the resident array on each access
        (a diagnostic and fallback view: writing one does not change
        the polynomial).
        """
        if self.packed:
            return [self._resident[..., idx]
                    for idx in _layout_indices(self._layout())]
        return self._shards

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _stage(cls, engine: UniNTTEngine, values, form: str,
               coset_shift: int | None = None) -> "DistributedPolynomial":
        """Shard host values (list or packed array) without unpacking.

        A packed array stays packed when the engine supports the
        resident path; otherwise it is unpacked once at this staging
        boundary and sharded as lists.
        """
        if _is_packed(values):
            n = values.shape[-1]
        else:
            n = len(values)
        if n & (n - 1):
            raise PartitionError(
                f"{form} count must be a power of two, got {n}")
        if _is_packed(values):
            if _packed_engine_ops(engine, n) is not None:
                return cls(engine, None, form=form, coset_shift=coset_shift,
                           resident=values.copy())
            values = host_list(engine.field, values)
        layout = (engine.input_layout(n) if form == _COEFF
                  else engine.output_layout(n))
        return cls(engine, distribute(list(values), layout),
                   form=form, coset_shift=coset_shift)

    @classmethod
    def from_coefficients(cls, engine: UniNTTEngine,
                          coefficients,
                          ) -> "DistributedPolynomial":
        """Stage coefficients (a list, or a packed backend array)."""
        return cls._stage(engine, coefficients, form=_COEFF)

    @classmethod
    def from_evaluations(cls, engine: UniNTTEngine,
                         evaluations,
                         coset_shift: int | None = None,
                         ) -> "DistributedPolynomial":
        """Stage spectral values (in the engine's output layout)."""
        return cls._stage(engine, evaluations, form=_EVAL,
                          coset_shift=coset_shift)

    # -- form changes (each costs the engine's one exchange) ----------------------

    def _install(self) -> DistributedVector:
        self.engine.cluster.load_shards(self.shards)
        return DistributedVector(cluster=self.engine.cluster,
                                 layout=self._layout())

    def _as_lists(self) -> "DistributedPolynomial":
        """The same polynomial with list shards (packed fallback exit)."""
        if not self.packed:
            return self
        return DistributedPolynomial(
            self.engine, distribute(host_list(self.field, self._resident),
                                    self._layout()),
            form=self.form, coset_shift=self.coset_shift)

    def _layout(self) -> Layout:
        return (self.engine.input_layout(self.n) if self.form == _COEFF
                else self.engine.output_layout(self.n))

    def to_evaluations(self, coset_shift: int | None = None,
                       ) -> "DistributedPolynomial":
        """Coefficients -> evaluations (no-op if already evaluated on
        the same coset)."""
        if self.form == _EVAL:
            if coset_shift != self.coset_shift:
                raise PartitionError(
                    "already evaluated on a different coset; convert to "
                    "coefficients first")
            return self
        if self.packed:
            return self._packed_transform(forward=True,
                                          coset_shift=coset_shift)
        vec = self._install()
        out = self.engine.forward(vec, coset_shift=coset_shift)
        return DistributedPolynomial(
            self.engine, out.cluster.peek_shards(), form=_EVAL,
            coset_shift=coset_shift)

    def to_coefficients(self) -> "DistributedPolynomial":
        """Evaluations -> coefficients (no-op if already coefficients)."""
        if self.form == _COEFF:
            return self
        if self.packed:
            return self._packed_transform(forward=False, coset_shift=None)
        vec = self._install()
        out = self.engine.inverse(vec, coset_shift=self.coset_shift)
        return DistributedPolynomial(
            self.engine, out.cluster.peek_shards(), form=_COEFF)

    # -- the packed resident path ---------------------------------------------

    def _packed_transform(self, forward: bool, coset_shift: int | None,
                          ) -> "DistributedPolynomial":
        """One transform on the packed currency, charged with the
        engine's own program.

        UniNTT's forward pass *is* the full n-point (coset) NTT with
        its output permuted into the spectral layout, so running the
        packed transform on the resident natural-order array yields the
        values whose shards under the output layout are bit-identical
        to the materialized engine's — without a single unpack
        (asserted by the ``pack_stats`` hot counter).
        """
        engine = self.engine
        ops = _packed_engine_ops(engine, self.n)
        if ops is None:
            # The backend changed (or chaos hooks appeared) after this
            # polynomial was staged packed: exit to the list path.
            fallback = self._as_lists()
            return (fallback.to_evaluations(coset_shift) if forward
                    else fallback.to_coefficients())
        out_layout = (engine.output_layout(self.n) if forward
                      else engine.input_layout(self.n))
        full = self._resident
        coset = (coset_shift if forward else self.coset_shift) is not None
        shift = coset_shift if forward else self.coset_shift
        injector = engine.cluster.injector
        checker = getattr(engine, "abft_checker", None)
        attempt = 0
        while True:
            attempt += 1
            with pack_stats.hot():
                if forward:
                    if coset_shift is not None:
                        out = packed_coset_ntt(ops, full, coset_shift,
                                               default_cache)
                    else:
                        out = packed_ntt(ops, full, default_cache)
                elif self.coset_shift is not None:
                    out = packed_coset_intt(ops, full, self.coset_shift,
                                            default_cache)
                else:
                    out = packed_intt(ops, full, default_cache)
            start = injector.local_index if injector is not None else 0
            self._charge_packed_transform(forward, coset)
            if injector is not None \
                    and hasattr(injector, "has_compute_faults") \
                    and injector.has_compute_faults(start,
                                                    injector.local_index):
                out = self._replay_compute_faults(
                    out, out_layout, injector, start, injector.local_index)
            if checker is None:
                break
            verdict = checker.verify_leg(
                inputs=host_list(self.field, full),
                outputs=host_list(self.field, out), n=self.n,
                inverse=not forward, coset_shift=shift,
                out_layout=out_layout,
                detail=f"packed-{'ntt' if forward else 'intt'}")
            if verdict.ok:
                break
            if attempt >= checker.max_attempts:
                raise ResilienceError(
                    f"packed {'forward' if forward else 'inverse'} "
                    f"transform kept failing its ABFT probe after "
                    f"{attempt} attempt(s)")
            checker.record_reexecution(
                detail=f"packed-{'ntt' if forward else 'intt'}")
        if forward:
            return DistributedPolynomial(engine, None, form=_EVAL,
                                         coset_shift=coset_shift,
                                         resident=out)
        return DistributedPolynomial(engine, None, form=_COEFF,
                                     resident=out)

    def _replay_compute_faults(self, out, out_layout: Layout, injector,
                               start: int, stop: int):
        """Apply the compute faults the materialized path would inject.

        The hot kernels never materialize per-step intermediates, so the
        injector's per-step decisions for this leg replay onto the
        result shards under the output layout — deterministic in the
        plan seed, like every other injection site.  The unpack/re-pack
        round trip happens outside the hot window (a chaos boundary,
        counted but never hot), and only when
        :meth:`FaultInjector.has_compute_faults` says the leg's step
        range may actually fire.
        """
        values = host_list(self.field, out)
        shards = distribute(values, out_layout)
        buffers = {g: [shards[g]] for g in range(out_layout.gpu_count)}
        injector.replay_local_steps(self.engine.cluster, start, stop,
                                    buffers)
        ops = _packed_engine_ops(self.engine, self.n)
        return pack_values(ops, collect(shards, out_layout))

    def _charge_packed_transform(self, forward: bool, coset: bool) -> None:
        """Charge the engine's program op by op without moving data.

        The same verified schedule :meth:`UniNTTEngine.forward` /
        ``inverse`` executes, so a trace from the packed path is
        indistinguishable from the materialized one.  Local ops pass no
        buffers — the cluster shards are stale (the data is resident
        in the packed array), so the injector only advances its step
        counter and :meth:`_replay_compute_faults` applies this leg's
        compute faults to the packed output instead.  Exchanges are
        priced by the element counts of their relayouts.
        """
        cluster = self.engine.cluster
        program = self.engine.program(self.n, inverse=not forward,
                                      coset=coset)
        for op in program.ops:
            if isinstance(op, LocalOp):
                cluster.charge_local(op.field_muls_per_gpu,
                                     op.mem_bytes_per_gpu, detail=op.name)
            else:
                cluster.charge_all_to_all(
                    exchange_counts(op.source, op.target), detail=op.name)

    # -- pointwise algebra (zero communication) ------------------------------------

    def _pointwise(self, other: "DistributedPolynomial",
                   op_name: str) -> "DistributedPolynomial":
        if other.engine is not self.engine:
            raise PartitionError(
                "polynomials must share an engine to combine")
        if (self.form, self.coset_shift) != (other.form,
                                             other.coset_shift):
            raise PartitionError(
                f"cannot {op_name} a {self.form} polynomial with a "
                f"{other.form} one (or different cosets)")
        if self.n != other.n:
            raise PartitionError(
                f"sizes differ: {self.n} vs {other.n}")
        field = self.field
        if self.packed or other.packed:
            ops = _packed_engine_ops(self.engine, self.n)
            if ops is None or not (self.packed and other.packed):
                # Mixed currencies (or a lapsed backend): unify on lists.
                return self._as_lists()._pointwise(other._as_lists(),
                                                   op_name)
            if op_name == "multiply":
                lane = ops.mul
            elif op_name == "add":
                lane = ops.add
            else:
                lane = ops.sub
            shards, resident = None, lane(self._resident, other._resident)
        else:
            if op_name == "multiply":
                combine = vec_mul
            elif op_name == "add":
                combine = vec_add
            else:
                combine = vec_sub
            shards = [combine(field, mine, theirs)
                      for mine, theirs in zip(self.shards, other.shards)]
            resident = None
        eb = self.engine.cluster.element_bytes
        per_gpu = self.n // self.engine.gpu_count
        self.engine.cluster.trace.record(TraceEvent(
            kind="pointwise", level="gpu",
            max_bytes_per_gpu=3 * per_gpu * eb,
            total_bytes=3 * self.n * eb,
            field_muls=self.n if op_name == "multiply" else 0,
            detail=f"distributed-poly-{op_name}"))
        return DistributedPolynomial(self.engine, shards, form=self.form,
                                     coset_shift=self.coset_shift,
                                     resident=resident)

    def __mul__(self, other: "DistributedPolynomial",
                ) -> "DistributedPolynomial":
        """Pointwise product; both operands must be in evaluation form
        (spectral multiplication = cyclic convolution of coefficients)."""
        if self.form != _EVAL:
            raise PartitionError(
                "multiply in evaluation form (call to_evaluations first)")
        return self._pointwise(other, "multiply")

    def __add__(self, other: "DistributedPolynomial",
                ) -> "DistributedPolynomial":
        return self._pointwise(other, "add")

    def __sub__(self, other: "DistributedPolynomial",
                ) -> "DistributedPolynomial":
        return self._pointwise(other, "subtract")

    # -- checkpoint / restore -------------------------------------------------

    def checkpoint(self) -> VectorCheckpoint:
        """Snapshot to the host (traced, not charged), pipeline-aware.

        Unlike :meth:`DistributedVector.checkpoint`, the snapshot
        records the polynomial's ``form`` and ``coset_shift`` so a
        mid-pipeline state — e.g. packed evaluations on a shifted
        coset — restores into the identical state.  Packed shards are
        unpacked here (a durability boundary, counted but never hot).
        """
        eb = self.engine.cluster.element_bytes
        per_gpu = self.n // self.engine.gpu_count
        self.engine.cluster.trace.record(TraceEvent(
            kind="checkpoint", level="resilience",
            max_bytes_per_gpu=per_gpu * eb, total_bytes=self.n * eb,
            detail=f"n={self.n}"))
        return VectorCheckpoint(values=tuple(self.values()),
                                form=self.form,
                                coset_shift=self.coset_shift)

    @classmethod
    def restore(cls, engine: UniNTTEngine, checkpoint: VectorCheckpoint,
                ) -> "DistributedPolynomial":
        """Re-stage a checkpoint (host staging; new cluster shape OK).

        Restores into the recorded form and coset; when the engine
        supports the resident path the values are re-packed so the
        pipeline resumes in the packed currency it was snapshotted in.
        """
        form = checkpoint.form if checkpoint.form is not None else _COEFF
        values = list(checkpoint.values)
        ops = _packed_engine_ops(engine, len(values))
        if ops is not None:
            values = pack_values(ops, values)
        return cls._stage(engine, values, form=form,
                          coset_shift=checkpoint.coset_shift)

    # -- inspection ------------------------------------------------------------------

    @property
    def field(self) -> PrimeField:
        return self.engine.field

    def values(self) -> list[int]:
        """Gather the logical vector (diagnostic; charges nothing)."""
        if self.packed:
            return host_list(self.field, self._resident)
        return collect(self._shards, self._layout())

    def __repr__(self) -> str:
        coset = f", coset={self.coset_shift}" if self.coset_shift else ""
        packed = ", packed" if self.packed else ""
        return (f"DistributedPolynomial(n={self.n}, form={self.form}"
                f"{coset}{packed}, gpus={self.engine.gpu_count})")
