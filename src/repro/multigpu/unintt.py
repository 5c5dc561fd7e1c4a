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
:func:`~repro.multigpu.schedule.build_unintt_schedule` builds for one
level here and for two in
:class:`~repro.multigpu.hierarchical.HierarchicalUniNTTEngine`:
:class:`ProgramEngine` runs its verified form through
:func:`repro.analysis.interp.execute_schedule` and prices it as
:func:`repro.hw.plancost.schedule_steps` of the same op list, and the
packed polynomial path charges the same ops.

The local transforms follow a hierarchical plan
(:func:`repro.ntt.plan.hierarchical_plan` restricted to the intra-GPU
levels), which is what "the same NTT computation at different scales"
means operationally: the program's step list *is* the plan's split node,
and the local kernel recursion repeats it per level.
"""

from __future__ import annotations

from repro.analysis.interp import (
    execute_schedule, unintt_program, unintt_steps,
)
from repro.errors import PartitionError
from repro.hw.cost import Step
from repro.multigpu.base import DistributedNTTEngine, DistributedVector
from repro.multigpu.layout import (
    BlockLayout, CyclicLayout, Layout, SpectralLayout,
)
from repro.multigpu.schedule import ALL_ON, CommSchedule, UniNTTOptions
from repro.sim.cluster import SimCluster

__all__ = ["ProgramEngine", "UniNTTEngine"]


class ProgramEngine(DistributedNTTEngine):
    """An engine whose transforms and profiles are its UniNTT program,
    recursed over ``nodes`` levels.  Subclasses supply the layouts and
    the size check."""

    options: UniNTTOptions = ALL_ON
    #: Nodes the program recurses over (one: a single exchange level).
    nodes: int = 1

    def _key(self, n: int) -> tuple:
        self._check_size(n)
        return (n, self.gpu_count, self.cluster.element_bytes,
                self.options, self.tile)

    def program(self, n: int, *, inverse: bool = False,
                coset: bool = False) -> CommSchedule:
        """The verified schedule a size-``n`` run executes
        (:func:`repro.analysis.interp.unintt_program`)."""
        return unintt_program(*self._key(n), inverse, coset, self.nodes)

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
        """Forward transform; ``coset_shift`` evaluates on ``shift * H``.

        The coset scaling ``x[j] *= shift^j`` decomposes along the
        cyclic layout as ``shift^(q*G) * shift^s`` — a per-GPU constant
        times a local geometric series — so it fuses into the local
        twiddle pass at zero extra memory traffic (the distributed
        instance of the coset-NTT fusion ZKP pipelines rely on).
        """
        self._run(vec, False, coset_shift)
        return DistributedVector(cluster=self.cluster,
                                 layout=self.output_layout(vec.n))

    def inverse(self, vec: DistributedVector,
                coset_shift: int | None = None) -> DistributedVector:
        """Inverse transform; ``coset_shift`` interprets the spectrum as
        evaluations on ``shift * H`` (undoing :meth:`forward`'s fused
        scaling after the transform).  Accepts the forward output
        layout: natural order is restored to the spectral layout first
        unless the output stays permuted."""
        self._run(vec, True, coset_shift)
        return DistributedVector(cluster=self.cluster,
                                 layout=self.input_layout(vec.n))

    # -- analytic ----------------------------------------------------------------

    def forward_profile(self, n: int) -> list[Step]:
        """``schedule_steps(self.program(n))``, memoized apart from the
        programs (:func:`repro.analysis.interp.unintt_steps`)."""
        return list(unintt_steps(*self._key(n), False, self.nodes))

    def inverse_profile(self, n: int) -> list[Step]:
        return list(unintt_steps(*self._key(n), True, self.nodes))


class UniNTTEngine(ProgramEngine):
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
