"""Binary-exchange distributed NTT (the classic distributed-FFT design).

The third point of the design space: instead of UniNTT's single
all-to-all, the cross-GPU transform is executed as ``log2(G)``
**butterfly stages**, each a disjoint-pair exchange of the full local
shard.  This is how distributed FFTs on message-passing machines were
traditionally built, and what a straightforward port of the in-GPU
butterfly structure to the multi-GPU level produces.

Trade-off against UniNTT:

* volume: ``M * log2(G)`` bytes per GPU versus ``M * (G-1)/G`` — ~3x
  more at 8 GPUs;
* pattern: disjoint pairs ride dedicated links (no all-to-all
  congestion), which partially compensates on ring topologies;
* latency: ``log2(G)`` synchronizations versus 1.

Like UniNTT it needs no transpose passes: the input is cyclic, the
twiddles are fused, and the output is left in a bit-reversed spectral
layout that :meth:`inverse` consumes directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PartitionError
from repro.field.vector import vec_add, vec_scale, vec_sub
from repro.hw.cost import Phase, Step
from repro.multigpu import accounting as acct
from repro.multigpu.base import (
    DistributedNTTEngine, DistributedVector, local_step, twiddle_table,
)
from repro.multigpu.layout import CyclicLayout, Layout
from repro.ntt.twiddle import bit_reverse, default_cache

__all__ = ["BitrevSpectralLayout", "PairwiseExchangeEngine"]


@dataclass(frozen=True)
class BitrevSpectralLayout(Layout):
    """Output order of the binary-exchange engine.

    With ``M = n/G`` and spectrum split ``k = k1 + M*k2``: GPU
    ``bitrev(k2)`` holds the k1-vector for its k2 (local index = k1) —
    the natural end state of ``log2 G`` DIF stages over the GPU
    dimension.
    """

    def global_index(self, gpu: int, local: int) -> int:
        self._check_slot(gpu, local)
        bits = self.gpu_count.bit_length() - 1
        return local + self.shard_size * bit_reverse(gpu, bits)


class PairwiseExchangeEngine(DistributedNTTEngine):
    """Cross-GPU NTT via log2(G) pairwise butterfly stages."""

    name = "pairwise-exchange"

    # -- layouts -----------------------------------------------------------

    def input_layout(self, n: int) -> Layout:
        return CyclicLayout(n=n, gpu_count=self.gpu_count)

    def output_layout(self, n: int) -> Layout:
        return BitrevSpectralLayout(n=n, gpu_count=self.gpu_count)

    def _check_size(self, n: int) -> None:
        if n < 2 * self.gpu_count:
            raise PartitionError(
                f"pairwise engine needs n >= 2*G ({n} < "
                f"{2 * self.gpu_count})")

    # -- functional ------------------------------------------------------------

    def forward(self, vec: DistributedVector) -> DistributedVector:
        n = vec.n
        self._check_size(n)
        self._check_input(vec, self.input_layout(n))
        g = self.gpu_count
        m = n // g
        field = self.field
        p = field.modulus
        root = field.root_of_unity(n)
        cluster = self.cluster

        # Local M-point transforms + fused twiddle (as in UniNTT).
        local_step(cluster, m, pow(root, g, p),
                   post=twiddle_table(field, root, range(g), m))
        self._charge_local_ntt(m, detail="pairwise-local")

        # DIF butterfly stages over the GPU dimension, root w^M (order G).
        root_g = pow(root, m, p)
        twiddles = default_cache.powers(field, root_g, max(g // 2, 1))
        half = g // 2
        while half >= 1:
            step = (g // 2) // half
            partner = [s ^ half for s in range(g)]
            payloads = [gpu.shard for gpu in cluster.gpus]
            received = cluster.pairwise_exchange(
                partner, payloads, detail=f"pairwise-stage-h{half}")
            for gpu in cluster.gpus:
                s = gpu.gpu_id
                theirs = received[s]
                mine = gpu.shard
                if s & half:
                    w = twiddles[(s & (half - 1)) * step]
                    gpu.shard = vec_scale(
                        field, vec_sub(field, theirs, mine), w)
                else:
                    gpu.shard = vec_add(field, mine, theirs)
            self._charge_stage(m, detail=f"pairwise-combine-h{half}")
            half //= 2
        return DistributedVector(
            cluster=cluster,
            layout=BitrevSpectralLayout(n=n, gpu_count=g))

    def inverse(self, vec: DistributedVector) -> DistributedVector:
        n = vec.n
        self._check_size(n)
        self._check_input(vec, self.output_layout(n))
        g = self.gpu_count
        m = n // g
        field = self.field
        p = field.modulus
        root = field.root_of_unity(n)
        inv_root = field.inv(root)
        cluster = self.cluster

        # DIT butterfly stages over the GPU dimension (bit-reversed in,
        # natural out), with the inverse root.
        inv_root_g = pow(inv_root, m, p)
        twiddles = default_cache.powers(field, inv_root_g, max(g // 2, 1))
        half = 1
        while half < g:
            step = (g // 2) // half
            partner = [s ^ half for s in range(g)]
            # The butterfly needs v = a_{j+h} * w; the twiddle applies to
            # the bit-set partner's value before it travels either way.
            payloads = []
            for gpu in cluster.gpus:
                s = gpu.gpu_id
                if s & half:
                    w = twiddles[(s & (half - 1)) * step]
                    # Folded into the send prep: no extra charge.
                    payloads.append(vec_scale(field, gpu.shard, w))
                else:
                    payloads.append(gpu.shard)
            received = cluster.pairwise_exchange(
                partner, payloads, detail=f"pairwise-inv-h{half}")
            for gpu in cluster.gpus:
                s = gpu.gpu_id
                theirs = received[s]
                if s & half:
                    w = twiddles[(s & (half - 1)) * step]
                    mine_tw = vec_scale(field, gpu.shard, w)
                    gpu.shard = vec_sub(field, theirs, mine_tw)
                else:
                    gpu.shard = vec_add(field, gpu.shard, theirs)
            self._charge_stage(m, detail=f"pairwise-inv-combine-h{half}")
            half *= 2

        # Inverse twiddle, local inverse transform, then the 1/G and 1/M
        # scalings as one 1/n.
        local_step(cluster, m, pow(inv_root, g, p),
                   pre=twiddle_table(field, inv_root, range(g), m),
                   scale=field.inv(n % p))
        self._charge_local_ntt(m, scaled=True,
                               detail="pairwise-inv-local")
        return DistributedVector(cluster=cluster,
                                 layout=CyclicLayout(n=n, gpu_count=g))

    # -- accounting --------------------------------------------------------------

    def _charge_local_ntt(self, m: int, detail: str,
                          scaled: bool = False) -> None:
        muls = acct.local_ntt_muls(m) + acct.twiddle_muls(m)
        if scaled:
            muls += 2 * m  # the 1/G and 1/M scaling passes
        self._charge_local(
            muls, acct.local_ntt_mem_bytes(m, self.cluster.element_bytes,
                                           self.tile), detail)

    def _charge_stage(self, m: int, detail: str) -> None:
        """One butterfly combine over the shard: <= m multiplies, one pass."""
        self._charge_local(
            m, acct.pointwise_mem_bytes(m, self.cluster.element_bytes),
            detail)

    # -- analytic ----------------------------------------------------------------

    def _profile(self, n: int, inverse: bool) -> list[Step]:
        self._check_size(n)
        g = self.gpu_count
        eb = self.cluster.element_bytes
        m = n // g
        stages = acct.log2_int(g)

        local_muls = acct.local_ntt_muls(m) + acct.twiddle_muls(m)
        if inverse:
            local_muls += 2 * m
        local = Phase(name="local-ntt", field_muls=local_muls,
                      mem_bytes=acct.local_ntt_mem_bytes(m, eb, self.tile))

        steps: list[Step] = []
        stage_steps: list[Step] = []
        for i in range(stages):
            stage_steps.append(Phase(
                name=f"stage-{i}", field_muls=m,
                mem_bytes=acct.pointwise_mem_bytes(m, eb),
                exchange_bytes=m * eb, exchange_pattern="pairwise",
                messages=1))
        if inverse:
            steps = stage_steps + [local]
        else:
            steps = [local] + stage_steps
        return steps

    def forward_profile(self, n: int) -> list[Step]:
        return self._profile(n, inverse=False)

    def inverse_profile(self, n: int) -> list[Step]:
        return self._profile(n, inverse=True)
