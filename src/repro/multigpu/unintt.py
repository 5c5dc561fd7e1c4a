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

The local transforms follow a hierarchical plan
(:func:`repro.ntt.plan.hierarchical_plan` restricted to the intra-GPU
levels), which is what "the same NTT computation at different scales"
means operationally: this module's step list *is* the plan's split node,
and the local kernel recursion repeats it per level.
"""

from __future__ import annotations

from repro.errors import PartitionError
from repro.hw.cost import Phase, PipelinedGroup, Step
from repro.multigpu import accounting as acct
from repro.multigpu.base import (
    DistributedNTTEngine, DistributedVector, local_step, redistribute,
    twiddle_table,
)
from repro.multigpu.layout import (
    BlockLayout, CyclicLayout, Layout, SpectralLayout, UniNTTExchangeLayout,
)
from repro.multigpu.schedule import ALL_ON, UniNTTOptions
from repro.ntt import radix4
from repro.sim.cluster import SimCluster
from repro.sim.trace import TraceEvent

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
        g = self.gpu_count
        m = n // g
        field = self.field
        p = field.modulus
        root = field.root_of_unity(n)
        cluster = self.cluster

        # 0. fused coset scaling (local; charged with the twiddles).
        if coset_shift is not None:
            self._scale_coset(n, coset_shift)

        # 1+2. local M-point transforms with the twiddle scaling fused
        # (functionally the twiddle is applied right after; the *charge*
        # differs: fused costs no extra memory sweep).
        local_step(cluster, m, pow(root, g, p),
                   post=twiddle_table(field, root, range(g), m))
        self._charge_local_ntt(m, twiddle=True, detail="unintt-local")

        # 3. the single all-to-all.
        unit_major = BlockLayout(n=n, gpu_count=g)
        exchange = UniNTTExchangeLayout(n=n, gpu_count=g)
        redistribute(cluster, unit_major, exchange, detail="unintt-exchange")

        # 4. cross transforms: M/G independent G-point NTTs per GPU over
        # the shard's contiguous G-groups.
        local_step(cluster, g, pow(root, m, p))
        self._charge_cross(m, detail="unintt-cross")

        out = DistributedVector(
            cluster=cluster, layout=SpectralLayout(n=n, gpu_count=g))
        if not self.options.keep_permuted_output:
            out = out.relayout(BlockLayout(n=n, gpu_count=g),
                               detail="unintt-materialize")
        return out

    def inverse(self, vec: DistributedVector,
                coset_shift: int | None = None) -> DistributedVector:
        """Inverse transform; ``coset_shift`` interprets the spectrum as
        evaluations on ``shift * H`` (undoing :meth:`forward`'s fused
        scaling after the transform)."""
        n = vec.n
        self._check_size(n)
        g = self.gpu_count
        m = n // g
        field = self.field
        p = field.modulus
        root = field.root_of_unity(n)
        inv_root = field.inv(root)
        cluster = self.cluster

        spectral = SpectralLayout(n=n, gpu_count=g)
        if not self.options.keep_permuted_output:
            # The engine hands out natural order, so it must also accept
            # it back: restore the spectral layout first.
            self._check_input(vec, BlockLayout(n=n, gpu_count=g))
            vec = vec.relayout(spectral, detail="unintt-dematerialize")
        else:
            self._check_input(vec, spectral)

        # 1. inverse cross transforms with the 1/G scaling fused in.
        local_step(cluster, g, pow(inv_root, m, p),
                   scale=field.inv(g % p))
        self._charge_cross(m, detail="unintt-inv-cross", scaled=True)

        # 2. the single all-to-all, back to unit-major order.
        unit_major = BlockLayout(n=n, gpu_count=g)
        exchange = UniNTTExchangeLayout(n=n, gpu_count=g)
        redistribute(cluster, exchange, unit_major,
                     detail="unintt-inv-exchange")

        # 3. fused inverse twiddle + local M-point inverse transforms
        # (scale 1/M; total scaling 1/G * 1/M = 1/n).
        local_step(cluster, m, pow(inv_root, g, p),
                   pre=twiddle_table(field, inv_root, range(g), m),
                   scale=field.inv(m % p))
        self._charge_local_ntt(m, twiddle=True, scaled=True,
                               detail="unintt-inv-local")

        # Fused inverse coset scaling: x[j] *= shift^-j, decomposed
        # along the cyclic layout exactly like the forward pass.
        if coset_shift is not None:
            self._scale_coset(n, coset_shift, inverse=True)
        return DistributedVector(cluster=cluster,
                                 layout=CyclicLayout(n=n, gpu_count=g))

    def _scale_coset(self, n: int, shift: int,
                     inverse: bool = False) -> None:
        """``x[j] *= shift^j`` (``shift^-j`` for ``inverse``) over the
        cyclic layout, then its charge.

        On GPU ``s`` that is ``shift^s`` times the local geometric
        series of ``shift^G``: the twiddle pass at zero extra memory
        traffic.
        """
        if shift % self.field.modulus == 0:
            raise PartitionError("coset shift must be non-zero")
        if inverse:
            shift = self.field.inv(shift)
        cyclic = CyclicLayout(n=n, gpu_count=self.gpu_count)
        local_step(self.cluster, post=twiddle_table(
            self.field, shift, (1,), n, layout=cyclic))
        self._charge_coset(n // self.gpu_count)

    # -- accounting --------------------------------------------------------------

    def _local_ntt_muls(self, m: int) -> int:
        if self.options.radix_fusion:
            return radix4.radix4_multiply_count(m)
        return acct.local_ntt_muls(m)

    def _charge_local_ntt(self, m: int, twiddle: bool, detail: str,
                          scaled: bool = False, live: bool = True) -> None:
        eb = self.cluster.element_bytes
        muls = self._local_ntt_muls(m)
        mem = acct.local_ntt_mem_bytes(m, eb, self.tile)
        if twiddle and self.options.fused_twiddle:
            muls += acct.twiddle_muls(m)
        if scaled:
            muls += m  # the 1/M scaling multiply
        buffers = self._live_buffers() if live else None
        for gpu in self.cluster.gpus:
            gpu.charge_compute(muls, mem)
        self.cluster.trace.record(TraceEvent(
            kind="local-compute", level="gpu", max_bytes_per_gpu=mem,
            total_bytes=mem * self.gpu_count,
            field_muls=muls * self.gpu_count, detail=detail))
        self.cluster.local_compute_hook(buffers, detail)
        if twiddle and not self.options.fused_twiddle:
            # A standalone twiddle kernel: its own launch and memory sweep.
            tw_muls = acct.twiddle_muls(m)
            tw_mem = acct.pointwise_mem_bytes(m, eb)
            for gpu in self.cluster.gpus:
                gpu.charge_compute(tw_muls, tw_mem)
            self.cluster.trace.record(TraceEvent(
                kind="local-compute", level="gpu",
                max_bytes_per_gpu=tw_mem,
                total_bytes=tw_mem * self.gpu_count,
                field_muls=tw_muls * self.gpu_count,
                detail=f"{detail}-twiddle"))
            self.cluster.local_compute_hook(buffers, f"{detail}-twiddle")

    def _charge_coset(self, m: int, live: bool = True) -> None:
        """Fused coset scaling: multiplications only, no memory sweep
        when twiddle fusion is on; a standalone pass otherwise."""
        eb = self.cluster.element_bytes
        mem = 0 if self.options.fused_twiddle \
            else acct.pointwise_mem_bytes(m, eb)
        for gpu in self.cluster.gpus:
            gpu.charge_compute(2 * m, mem)
        self.cluster.trace.record(TraceEvent(
            kind="local-compute", level="gpu", max_bytes_per_gpu=mem,
            total_bytes=mem * self.gpu_count,
            field_muls=2 * m * self.gpu_count, detail="unintt-coset"))
        self.cluster.local_compute_hook(
            self._live_buffers() if live else None, "unintt-coset")

    def _charge_cross(self, m: int, detail: str,
                      scaled: bool = False, live: bool = True) -> None:
        g = self.gpu_count
        eb = self.cluster.element_bytes
        muls = acct.small_batch_ntt_muls(m // g, g)
        if scaled:
            muls += m
        mem = acct.small_batch_mem_bytes(m // g, g, eb)
        for gpu in self.cluster.gpus:
            gpu.charge_compute(muls, mem)
        self.cluster.trace.record(TraceEvent(
            kind="local-compute", level="gpu", max_bytes_per_gpu=mem,
            total_bytes=mem * g, field_muls=muls * g, detail=detail))
        self.cluster.local_compute_hook(
            self._live_buffers() if live else None, detail)

    # -- analytic ----------------------------------------------------------------

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
