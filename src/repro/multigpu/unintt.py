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

A coset forward's scaling ``x[j] *= shift^j`` decomposes along the
cyclic layout as ``shift^(q*G) * shift^s`` — a per-GPU constant times a
local geometric series — so it fuses into the local twiddle pass at
zero extra memory traffic.

The steps are written once, as the program
:func:`~repro.multigpu.schedule.build_unintt_schedule` builds for the
engine's fanouts: one level here, one per device level in
:class:`~repro.multigpu.hierarchical.HierarchicalUniNTTEngine`.
:class:`ProgramEngine`, the base of every multi-GPU engine but the
single-GPU and streaming ones (the pairwise and baseline engines run
their own programs), runs its verified form through
:func:`repro.analysis.interp.execute_schedule` and prices it as
:func:`repro.hw.plancost.schedule_steps` of the same op list; the
packed polynomial path charges UniNTT's ops.  The local and cross
transforms run as batched host kernels through
:func:`~repro.multigpu.base.local_step`.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.interp import (
    execute_schedule, program_steps, verified_program,
)
from repro.errors import PartitionError
from repro.hw.cost import Step
from repro.multigpu.base import DistributedNTTEngine, DistributedVector
from repro.multigpu.layout import (
    BlockLayout, CyclicLayout, Layout, SpectralLayout,
)
from repro.multigpu.schedule import (
    ALL_ON, CommSchedule, UniNTTOptions, build_unintt_schedule,
)
from repro.sim.cluster import SimCluster

__all__ = ["ProgramEngine", "UniNTTProgramEngine", "UniNTTEngine"]


class ProgramEngine(DistributedNTTEngine):
    """An engine whose transforms and profiles are its program.

    ``builder`` (a :mod:`repro.multigpu.schedule` function) writes the
    program of a size-``n`` run from the arguments :meth:`_key` gives;
    :func:`~repro.analysis.interp.verified_program` memoizes it
    verified, :func:`~repro.analysis.interp.execute_schedule` runs it
    and :func:`~repro.analysis.interp.program_steps` prices it.
    Subclasses supply the builder, the layouts and the size check.
    """

    builder: Callable[..., CommSchedule]

    def _key(self, n: int, inverse: bool, coset: bool) -> tuple:
        """The builder's arguments: n, G, element size, tile and the
        direction; no coset form."""
        self._check_size(n)
        if coset:
            raise PartitionError(f"{self.name} has no coset transform")
        return (n, self.gpu_count, self.cluster.element_bytes, self.tile,
                inverse)

    def program(self, n: int, *, inverse: bool = False,
                coset: bool = False) -> CommSchedule:
        """The verified schedule a size-``n`` run executes."""
        return verified_program(self.builder,
                                *self._key(n, inverse, coset))

    def _run(self, vec: DistributedVector, inverse: bool,
             coset_shift: int | None) -> None:
        n = vec.n
        program = self.program(n, inverse=inverse,
                               coset=coset_shift is not None)
        self._check_input(vec, self.output_layout(n) if inverse
                          else self.input_layout(n))
        execute_schedule(program, self.cluster, coset_shift=coset_shift)

    def forward(self, vec: DistributedVector,
                coset_shift: int | None = None) -> DistributedVector:
        """Forward transform from :meth:`input_layout` to
        :meth:`output_layout`; ``coset_shift`` (programs with a coset
        form) evaluates on ``shift * H``."""
        self._run(vec, False, coset_shift)
        return DistributedVector(cluster=self.cluster,
                                 layout=self.output_layout(vec.n))

    def inverse(self, vec: DistributedVector,
                coset_shift: int | None = None) -> DistributedVector:
        """Inverse transform from the forward output layout back to
        :meth:`input_layout`; ``coset_shift`` interprets the spectrum
        as evaluations on ``shift * H``."""
        self._run(vec, True, coset_shift)
        return DistributedVector(cluster=self.cluster,
                                 layout=self.input_layout(vec.n))

    # -- analytic ----------------------------------------------------------------

    def forward_profile(self, n: int) -> list[Step]:
        """``schedule_steps(self.program(n))``, memoized apart from the
        programs (:func:`repro.analysis.interp.program_steps`)."""
        return list(program_steps(self.builder, *self._key(n, False, False)))

    def inverse_profile(self, n: int) -> list[Step]:
        return list(program_steps(self.builder, *self._key(n, True, False)))


class UniNTTProgramEngine(ProgramEngine):
    """The UniNTT recursion over the engine's ``fanouts`` with
    ``options``: cyclic input, the last level's spectrum (or natural
    blocks) out."""

    builder = staticmethod(build_unintt_schedule)
    options: UniNTTOptions = ALL_ON

    @property
    def fanouts(self) -> tuple[int, ...]:
        """The device levels the program recurses over, outermost first
        (one: a single exchange level)."""
        return (self.gpu_count,)

    def _key(self, n: int, inverse: bool, coset: bool) -> tuple:
        self._check_size(n)
        return (n, self.gpu_count, self.cluster.element_bytes,
                self.options, self.tile, inverse, coset, self.fanouts, True)

    # -- layouts -----------------------------------------------------------

    def input_layout(self, n: int) -> Layout:
        return CyclicLayout(n=n, gpu_count=self.gpu_count,
                            fanouts=self.fanouts)

    def output_layout(self, n: int) -> Layout:
        if self.options.keep_permuted_output:
            return SpectralLayout(n=n, gpu_count=self.gpu_count,
                                  fanouts=self.fanouts)
        return BlockLayout(n=n, gpu_count=self.gpu_count)

    def _check_size(self, n: int) -> None:
        # The last level's spectrum, which raises below its size floor.
        SpectralLayout(n=n, gpu_count=self.gpu_count, fanouts=self.fanouts)


class UniNTTEngine(UniNTTProgramEngine):
    """One-exchange multi-GPU NTT: the recursion over a flat cluster."""

    name = "unintt"

    def __init__(self, cluster: SimCluster, tile: int = 4096,
                 options: UniNTTOptions = ALL_ON):
        super().__init__(cluster, tile)
        self.options = options
        self.name = f"unintt[{options.label()}]"
