"""The conventional multi-GPU NTT baseline: distributed four-step.

This is "state-of-the-art single-GPU NTT extended to multiple GPUs the
obvious way", the comparison point for the paper's headline speedup.
The natural-order input is block-distributed; the four-step structure
(:mod:`repro.ntt.fourstep`) is parallelized with **three all-to-all
transposes** plus a **standalone twiddle sweep**:

1. all-to-all: block rows -> column blocks (columns become local);
2. local column transforms (size R);
3. twiddle pass (a full extra read+write of every shard);
4. all-to-all: back to row blocks;
5. local row transforms (size C);
6. all-to-all: final transpose into natural block order.

Every step is synchronous (no overlap), and both the input and the
output are natural order — exactly the contract a drop-in replacement
of a single-GPU library call must honour, which is why existing
implementations look like this.
"""

from __future__ import annotations

from repro.errors import PartitionError
from repro.hw.cost import Phase, Step
from repro.multigpu import accounting as acct
from repro.multigpu.base import (
    DistributedNTTEngine, DistributedVector, local_step, redistribute,
    twiddle_table,
)
from repro.multigpu.layout import (
    BlockLayout, ColumnBlockLayout, Layout, TransposedBlockLayout,
)
from repro.ntt.fourstep import split_size
from repro.sim.cluster import SimCluster

__all__ = ["BaselineFourStepEngine"]


class BaselineFourStepEngine(DistributedNTTEngine):
    """Three-transpose distributed four-step NTT (the baseline)."""

    name = "baseline-fourstep"

    def __init__(self, cluster: SimCluster, tile: int = 4096):
        super().__init__(cluster, tile)

    # -- layouts -----------------------------------------------------------

    def input_layout(self, n: int) -> Layout:
        return BlockLayout(n=n, gpu_count=self.gpu_count)

    def output_layout(self, n: int) -> Layout:
        return BlockLayout(n=n, gpu_count=self.gpu_count)

    def _factor(self, n: int) -> tuple[int, int]:
        rows, cols = split_size(n)
        g = self.gpu_count
        if rows % g or cols % g:
            raise PartitionError(
                f"baseline needs both factors of {n} = {rows}x{cols} "
                f"divisible by {g} GPUs (n >= {g * g * 4} suffices)")
        return rows, cols

    # -- functional ------------------------------------------------------------

    def _run(self, vec: DistributedVector, inverse: bool) -> DistributedVector:
        n = vec.n
        self._check_input(vec, self.input_layout(n))
        g = self.gpu_count
        rows, cols = self._factor(n)
        p = self.field.modulus
        field = self.field
        root = field.root_of_unity(n)
        if inverse:
            root = field.inv(root)
        cluster = self.cluster
        eb = cluster.element_bytes
        m = n // g

        block = BlockLayout(n=n, gpu_count=g)
        col_block = ColumnBlockLayout(n=n, gpu_count=g, rows=rows, cols=cols)
        transposed = TransposedBlockLayout(n=n, gpu_count=g, rows=rows,
                                           cols=cols)

        # 1. transpose: columns become local.
        redistribute(cluster, block, col_block, detail="baseline-T1")

        # 2. local column transforms of size `rows` with root w^cols.
        local_step(cluster, rows, pow(root, cols, p))
        self._charge_local(acct.small_batch_ntt_muls(cols // g, rows),
                           2 * m * eb * acct.tile_passes(rows, self.tile),
                           detail="baseline-colntt")

        # 3. standalone twiddle sweep: Y[k1][c] *= root^(c*k1) over the
        #    column-major shards; the inverse run also applies the 1/n
        #    scaling in this sweep.
        local_step(cluster,
                   post=twiddle_table(field, root, range(cols), rows),
                   scale=field.inv(n % p) if inverse else None)
        self._charge_local(acct.twiddle_muls(m),
                           acct.pointwise_mem_bytes(m, eb),
                           detail="baseline-twiddle")

        # 4. transpose back: rows of Y become local.
        redistribute(cluster, col_block, block, detail="baseline-T2")

        # 5. local row transforms of size `cols` with root w^rows.
        local_step(cluster, cols, pow(root, rows, p))
        self._charge_local(acct.small_batch_ntt_muls(rows // g, cols),
                           2 * m * eb * acct.tile_passes(cols, self.tile),
                           detail="baseline-rowntt")

        # 6. final transpose into natural block order.
        redistribute(cluster, block, transposed, detail="baseline-T3")
        return DistributedVector(cluster=cluster, layout=block)

    def forward(self, vec: DistributedVector) -> DistributedVector:
        return self._run(vec, inverse=False)

    def inverse(self, vec: DistributedVector) -> DistributedVector:
        return self._run(vec, inverse=True)

    # -- analytic ----------------------------------------------------------------

    def forward_profile(self, n: int) -> list[Step]:
        g = self.gpu_count
        eb = self.cluster.element_bytes
        rows, cols = self._factor(n)
        m = n // g
        a2a = acct.alltoall_bytes_per_gpu(m, g, eb)
        return [
            Phase(name="transpose-1", exchange_bytes=a2a, messages=g - 1),
            Phase(name="col-ntt",
                  field_muls=acct.small_batch_ntt_muls(cols // g, rows),
                  mem_bytes=2 * m * eb * acct.tile_passes(rows, self.tile)),
            Phase(name="twiddle-pass", field_muls=acct.twiddle_muls(m),
                  mem_bytes=acct.pointwise_mem_bytes(m, eb)),
            Phase(name="transpose-2", exchange_bytes=a2a, messages=g - 1),
            Phase(name="row-ntt",
                  field_muls=acct.small_batch_ntt_muls(rows // g, cols),
                  mem_bytes=2 * m * eb * acct.tile_passes(cols, self.tile)),
            Phase(name="transpose-3", exchange_bytes=a2a, messages=g - 1),
        ]
