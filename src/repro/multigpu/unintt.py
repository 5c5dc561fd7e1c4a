"""UniNTT: the paper's multi-GPU NTT engine.

The recursive decomposition instantiated at the multi-GPU level, with
the uniform optimizations of :mod:`repro.multigpu.schedule`:

* **cyclic input layout** — GPU ``s`` holds ``x[s::G]``, so the size-M
  local sub-transforms (step 1) touch no remote data at all;
* **fused twiddle** (step 2) — the inter-factor scaling rides the last
  butterfly stage instead of a standalone sweep;
* **one all-to-all** (step 3) — each GPU receives the G-vectors for its
  chunk of spectrum residues; with ``overlap`` on, the exchange is
  chunked and pipelined with the cross transforms that consume it;
* **cross transforms stay local** (step 4) — after the exchange each
  GPU runs its M/G independent G-point NTTs; the host runs every GPU's
  as one batched kernel (:func:`~repro.multigpu.base.local_step`, as
  for every local step); the output is left in
  :class:`~repro.multigpu.layout.SpectralLayout` (``keep_permuted_output``),
  which deletes the final transpose entirely.  The inverse transform
  consumes that layout directly and returns the cyclic layout, so an
  NTT -> pointwise -> INTT round trip pays exactly **two** all-to-alls
  where the baseline pays six.

The steps are written once, as the program
:func:`~repro.multigpu.schedule.build_unintt_schedule` builds:
:meth:`UniNTTEngine.forward` and :meth:`UniNTTEngine.inverse` run its
verified form through :func:`repro.analysis.interp.execute_schedule`,
and the packed polynomial path charges the same ops.

The local transforms follow a hierarchical plan
(:func:`repro.ntt.plan.hierarchical_plan` restricted to the intra-GPU
levels), which is what "the same NTT computation at different scales"
means operationally: the program's step list *is* the plan's split node,
and the local kernel recursion repeats it per level.
"""

from __future__ import annotations

from repro.analysis.interp import execute_schedule, unintt_program
from repro.errors import PartitionError
from repro.hw.cost import Phase, PipelinedGroup, Step
from repro.multigpu import accounting as acct
from repro.multigpu.base import DistributedNTTEngine, DistributedVector
from repro.multigpu.layout import (
    BlockLayout, CyclicLayout, Layout, SpectralLayout,
)
from repro.multigpu.schedule import ALL_ON, CommSchedule, UniNTTOptions
from repro.ntt import radix4
from repro.sim.cluster import SimCluster

__all__ = ["UniNTTEngine"]


class UniNTTEngine(DistributedNTTEngine):
    """Hierarchical one-exchange multi-GPU NTT."""

    name = "unintt"

    def __init__(self, cluster: SimCluster, tile: int = 4096,
                 options: UniNTTOptions = ALL_ON):
        super().__init__(cluster, tile)
        self.options = options
        self.name = f"unintt[{options.label()}]"

    # -- layouts -----------------------------------------------------------

    def input_layout(self, n: int) -> Layout:
        return CyclicLayout(n=n, gpu_count=self.gpu_count)

    def output_layout(self, n: int) -> Layout:
        if self.options.keep_permuted_output:
            return SpectralLayout(n=n, gpu_count=self.gpu_count)
        return BlockLayout(n=n, gpu_count=self.gpu_count)

    def _check_size(self, n: int) -> None:
        g = self.gpu_count
        if n < g * g:
            raise PartitionError(
                f"UniNTT needs n >= G^2 ({n} < {g}^2)")

    # -- functional ------------------------------------------------------------

    def program(self, n: int, *, inverse: bool = False,
                coset: bool = False) -> CommSchedule:
        """The verified schedule a size-``n`` run executes.

        :func:`~repro.multigpu.schedule.build_unintt_schedule` is the
        engine's only description of its phases;
        :func:`repro.analysis.interp.unintt_program` verifies it once
        per key and memoizes it.
        """
        self._check_size(n)
        return unintt_program(n, self.gpu_count, self.cluster.element_bytes,
                              self.options, self.tile, inverse, coset)

    def _run(self, n: int, inverse: bool, coset_shift: int | None) -> None:
        execute_schedule(
            self.program(n, inverse=inverse, coset=coset_shift is not None),
            self.cluster, coset_shift=coset_shift)

    def forward(self, vec: DistributedVector,
                coset_shift: int | None = None) -> DistributedVector:
        """Forward transform; ``coset_shift`` evaluates on ``shift * H``.

        The coset scaling ``x[j] *= shift^j`` decomposes along the
        cyclic layout as ``shift^(q*G) * shift^s`` — a per-GPU constant
        times a local geometric series — so it fuses into the local
        twiddle pass at zero extra memory traffic (the distributed
        instance of the coset-NTT fusion ZKP pipelines rely on).
        """
        n = vec.n
        self._check_size(n)
        self._check_input(vec, self.input_layout(n))
        self._run(n, inverse=False, coset_shift=coset_shift)
        return DistributedVector(cluster=self.cluster,
                                 layout=self.output_layout(n))

    def inverse(self, vec: DistributedVector,
                coset_shift: int | None = None) -> DistributedVector:
        """Inverse transform; ``coset_shift`` interprets the spectrum as
        evaluations on ``shift * H`` (undoing :meth:`forward`'s fused
        scaling after the transform).  Accepts the forward output
        layout: natural order is restored to the spectral layout first
        unless the output stays permuted."""
        n = vec.n
        self._check_size(n)
        self._check_input(vec, self.output_layout(n))
        self._run(n, inverse=True, coset_shift=coset_shift)
        return DistributedVector(cluster=self.cluster,
                                 layout=self.input_layout(n))

    # -- analytic ----------------------------------------------------------------

    def _local_ntt_muls(self, m: int) -> int:
        if self.options.radix_fusion:
            return radix4.radix4_multiply_count(m)
        return acct.local_ntt_muls(m)

    def _profile(self, n: int, inverse: bool) -> list[Step]:
        self._check_size(n)
        g = self.gpu_count
        eb = self.cluster.element_bytes
        m = n // g
        opts = self.options

        local_muls = self._local_ntt_muls(m)
        if opts.fused_twiddle:
            local_muls += acct.twiddle_muls(m)
        local_mem = acct.local_ntt_mem_bytes(m, eb, self.tile)
        if inverse:
            local_muls += m  # 1/M scaling

        cross_muls = acct.small_batch_ntt_muls(m // g, g)
        if inverse:
            cross_muls += m  # 1/G scaling
        cross_mem = acct.small_batch_mem_bytes(m // g, g, eb)

        local = Phase(name="local-ntt", field_muls=local_muls,
                      mem_bytes=local_mem)
        a2a = Phase(name="exchange",
                    exchange_bytes=acct.alltoall_bytes_per_gpu(m, g, eb),
                    messages=g - 1)
        cross = Phase(name="cross-ntt", field_muls=cross_muls,
                      mem_bytes=cross_mem)

        local_steps: list[Step] = [local]
        if not opts.fused_twiddle:
            local_steps.append(Phase(
                name="twiddle-pass", field_muls=acct.twiddle_muls(m),
                mem_bytes=acct.pointwise_mem_bytes(m, eb)))
        if opts.overlap:
            core: list[Step] = local_steps + [
                PipelinedGroup(name="exchange+cross", phases=(a2a, cross))]
        else:
            core = local_steps + [a2a, cross]
        if inverse:
            core.reverse()
        if not opts.keep_permuted_output:
            materialize = Phase(
                name="materialize",
                exchange_bytes=acct.alltoall_bytes_per_gpu(m, g, eb),
                messages=g - 1)
            if inverse:
                core.insert(0, materialize)
            else:
                core.append(materialize)
        return core

    def forward_profile(self, n: int) -> list[Step]:
        return self._profile(n, inverse=False)

    def inverse_profile(self, n: int) -> list[Step]:
        return self._profile(n, inverse=True)
