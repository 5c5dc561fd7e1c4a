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
layout that :meth:`inverse` consumes directly.  The engine is its
program, :func:`~repro.multigpu.schedule.build_pairwise_schedule`: a
:class:`~repro.multigpu.unintt.ProgramEngine` runs it through the
schedule executor and prices it from the same op list.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PartitionError
from repro.multigpu.layout import CyclicLayout, Layout
from repro.multigpu.schedule import build_pairwise_schedule
from repro.multigpu.unintt import ProgramEngine
from repro.ntt.twiddle import bit_reverse

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


class PairwiseExchangeEngine(ProgramEngine):
    """Cross-GPU NTT via log2(G) pairwise butterfly stages."""

    name = "pairwise-exchange"
    builder = staticmethod(build_pairwise_schedule)

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
