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
implementations look like this.  The engine is its program,
:func:`~repro.multigpu.schedule.build_baseline_schedule`: a
:class:`~repro.multigpu.unintt.ProgramEngine` runs it through the
schedule executor and prices it from the same op list.
"""

from __future__ import annotations

from repro.errors import PartitionError
from repro.multigpu.layout import BlockLayout, Layout
from repro.multigpu.schedule import build_baseline_schedule
from repro.multigpu.unintt import ProgramEngine
from repro.ntt.fourstep import split_size

__all__ = ["BaselineFourStepEngine"]


class BaselineFourStepEngine(ProgramEngine):
    """Three-transpose distributed four-step NTT (the baseline)."""

    name = "baseline-fourstep"
    builder = staticmethod(build_baseline_schedule)

    # -- layouts -----------------------------------------------------------

    def input_layout(self, n: int) -> Layout:
        return BlockLayout(n=n, gpu_count=self.gpu_count)

    def output_layout(self, n: int) -> Layout:
        return BlockLayout(n=n, gpu_count=self.gpu_count)

    def _check_size(self, n: int) -> None:
        rows, cols = split_size(n)
        g = self.gpu_count
        if rows % g or cols % g:
            raise PartitionError(
                f"baseline needs both factors of {n} = {rows}x{cols} "
                f"divisible by {g} GPUs (n >= {g * g * 4} suffices)")
