"""Distributed *batched* transforms: the two parallelization axes.

A batch of B same-size transforms can be parallelized two ways:

* **split** — every vector is distributed over all GPUs and transformed
  by an inner engine (UniNTT by default); communication per vector is
  the engine's, latency amortizes across the batch.
* **replicate** — whole vectors are assigned round-robin to GPUs; each
  transform is GPU-local, so the batch needs **zero inter-GPU
  communication** — unbeatable when B >= G and a single vector fits one
  GPU's memory.

Production provers use both: replicate for the many small witness
columns, split for the handful of huge quotient-domain transforms.
:class:`BatchedDistributedNTT` implements both against the simulator
and exposes the closed-form profiles so the batched-throughput table
(T3) rests on the same honesty contract as everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import PartitionError, SimulationError
from repro.field.backend import sized_lane_ops
from repro.field.packed import lane_words
from repro.hw.cost import CostBreakdown, CostModel, Phase, Step
from repro.hw.model import MachineModel
from repro.multigpu import accounting as acct
from repro.multigpu.base import DistributedNTTEngine, DistributedVector
from repro.multigpu.unintt import UniNTTEngine
from repro.ntt import radix2
from repro.ntt.batch import LaneBlock, ntt_groups, ntt_lanes
from repro.ntt.twiddle import default_cache
from repro.sim.cluster import SimCluster
from repro.sim.trace import TraceEvent

__all__ = ["BatchedDistributedNTT", "BatchLanes", "REPLICATE_MAX_LANES"]

#: Lanes (vectors x points) one host kernel of the replicate route
#: covers; a larger batch runs as several calls of this size.
REPLICATE_MAX_LANES = 1 << 13


@dataclass(frozen=True)
class BatchLanes:
    """One run's vectors as its kernels left them, for checks and digests.

    ``inputs`` and ``outputs`` hold, per vector, a
    :class:`~repro.ntt.batch.LaneRow` over its host kernel's operand and
    unpacked result, or the plain list where that kernel ran on lists
    (the Python backend, a chunk below the lane crossover, the split
    route).  ``words`` holds each result's values as fixed-width
    little-endian words (:func:`repro.field.packed.lane_words`) where
    its kernel ran on lanes, else ``None``.
    """

    inputs: list
    outputs: list
    words: list


class BatchedDistributedNTT:
    """Batched forward/inverse transforms over a simulated cluster."""

    def __init__(self, cluster: SimCluster, strategy: str = "replicate",
                 inner: DistributedNTTEngine | None = None,
                 tile: int = 4096):
        if strategy not in ("replicate", "split"):
            raise SimulationError(
                f"strategy must be 'replicate' or 'split', got "
                f"{strategy!r}")
        self.cluster = cluster
        self.strategy = strategy
        self.inner = inner if inner is not None else UniNTTEngine(
            cluster, tile=tile)
        self.tile = tile
        self.name = f"batched-{strategy}"
        #: The last run's lanes (``None`` before the first run).
        self.lanes: BatchLanes | None = None

    @property
    def field(self):
        return self.cluster.field

    # -- functional ------------------------------------------------------------

    def forward(self, batch: Sequence[Sequence[int]]) -> list[list[int]]:
        """Transform every vector; returns natural-order spectra."""
        return self._run(batch, inverse=False)

    def inverse(self, batch: Sequence[Sequence[int]]) -> list[list[int]]:
        """Inverse-transform every vector (natural order in and out)."""
        return self._run(batch, inverse=True)

    def _run(self, batch: Sequence[Sequence[int]],
             inverse: bool) -> list[list[int]]:
        if not batch:
            raise PartitionError("empty batch")
        n = len(batch[0])
        for i, vec in enumerate(batch):
            if len(vec) != n:
                raise PartitionError(
                    f"batch vectors must share a size: vector {i} has "
                    f"{len(vec)}, vector 0 has {n}")
        if self.strategy == "replicate":
            return self._run_replicated(batch, n, inverse)
        return self._run_split(batch, n, inverse)

    def _run_replicated(self, batch: Sequence[Sequence[int]], n: int,
                        inverse: bool) -> list[list[int]]:
        """Round-robin whole vectors to GPUs; all transforms local.

        GPU assignment is accounting only, so the host runs the whole
        batch as :func:`repro.ntt.batch.ntt_lanes` kernels of at most
        :data:`REPLICATE_MAX_LANES` lanes each (the inverse is the
        inverse root plus the ``1/n`` scale), or as
        :func:`~repro.ntt.batch.ntt_groups` calls where a chunk runs on
        lists.  A lane kernel's result is unpacked at once into lists
        and words (:meth:`repro.ntt.batch.LaneBlock.unpack`), and its
        operand is kept as words.  Each GPU is charged one transform
        per vector it owns, holds its last vector's result as its
        shard, and the fault hook is handed every vector's result lane:
        a :class:`~repro.ntt.batch.LaneRow`, or the list itself.  A
        corruption thus lands in what :attr:`lanes` exposes to checks
        and in what is returned.
        """
        radix2.check_size(n, self.field)
        field = self.field
        gpus = self.cluster.gpus
        g = len(gpus)
        if inverse:
            root = field.inv_root_of_unity(n)
            scale = field.inv(n % field.modulus)
        else:
            root, scale = field.root_of_unity(n), None
        per_call = max(1, REPLICATE_MAX_LANES // n)
        inputs: list = []
        lanes: list = []
        out: list[list[int]] = []
        words: list = []
        for start in range(0, len(batch), per_call):
            flat = [int(v) for vec in batch[start:start + per_call]
                    for v in vec]
            ops = sized_lane_ops(field, len(flat))
            if ops is None:
                result = ntt_groups(field, flat, n, root, scale,
                                    default_cache)
                values = [result[base:base + n]
                          for base in range(0, len(result), n)]
                inputs.extend(flat[base:base + n]
                              for base in range(0, len(flat), n))
                lanes.extend(values)
                words.extend([None] * len(values))
            else:
                packed = ops.pack(flat)
                result = ntt_lanes(ops, packed, n, root, scale,
                                   default_cache)
                if result is packed:  # 1-point forward: keep inputs apart
                    result = result.copy()
                block = LaneBlock.unpack(ops, result, n)
                values = block.values
                inputs.extend(
                    LaneBlock(field, n, lane_words(ops, packed)).rows())
                lanes.extend(block.rows())
                words.extend(block.words_by_lane())
            out.extend(values)
        mem = acct.local_ntt_mem_bytes(n, self.cluster.element_bytes,
                                       self.tile)
        muls = _vector_muls(n, inverse)
        for index in range(len(out)):
            gpus[index % g].charge_compute(muls, mem)
        per_gpu_buffers: dict[int, list] = {}
        for i, gpu in enumerate(gpus[:len(out)]):
            per_gpu_buffers[gpu.gpu_id] = lanes[i::g]
            gpu.shard = list(out[i::g][-1])
        detail = f"{self.name}-{'intt' if inverse else 'ntt'}"
        self.cluster.trace.record(TraceEvent(
            kind="local-compute", level="gpu",
            max_bytes_per_gpu=-(-len(out) // g) * mem,
            total_bytes=len(out) * mem,
            field_muls=len(out) * muls, detail=detail))
        self.cluster.local_compute_hook(per_gpu_buffers, detail)
        self.lanes = BatchLanes(inputs, lanes, words)
        return out

    def _run_split(self, batch: Sequence[Sequence[int]], n: int,
                   inverse: bool) -> list[list[int]]:
        """Each vector distributed over all GPUs via the inner engine."""
        out: list[list[int]] = []
        for vec in batch:
            if inverse:
                staged = DistributedVector.from_values(
                    self.cluster, list(vec),
                    self.inner.output_layout(n))
                result = self.inner.inverse(staged)
            else:
                staged = DistributedVector.from_values(
                    self.cluster, list(vec), self.inner.input_layout(n))
                result = self.inner.forward(staged)
            out.append(result.to_values())
        self.lanes = BatchLanes(list(batch), out, [None] * len(out))
        return out

    # -- analytic ----------------------------------------------------------------

    def forward_profile(self, n: int, batch: int) -> list[Step]:
        """Per-GPU phases for a whole batch of forward transforms."""
        return self._profile(n, batch, inverse=False)

    def inverse_profile(self, n: int, batch: int) -> list[Step]:
        """Per-GPU phases for a whole batch of inverse transforms."""
        return self._profile(n, batch, inverse=True)

    def _profile(self, n: int, batch: int, inverse: bool) -> list[Step]:
        if batch < 1:
            raise PartitionError(f"batch must be >= 1, got {batch}")
        g = self.cluster.gpu_count
        eb = self.cluster.element_bytes
        if self.strategy == "replicate":
            per_gpu = -(-batch // g)  # ceil: the busiest GPU's share
            return [Phase(
                name="replicated-ntt",
                field_muls=per_gpu * _vector_muls(n, inverse),
                mem_bytes=per_gpu * acct.local_ntt_mem_bytes(n, eb,
                                                             self.tile),
            )]
        profile = self.inner.inverse_profile(n) if inverse \
            else self.inner.forward_profile(n)
        return profile * batch

    def estimate(self, machine: MachineModel, n: int, batch: int,
                 inverse: bool = False) -> CostBreakdown:
        """Price a batch of forward (or inverse) transforms on ``machine``."""
        model = CostModel(machine, self.field)
        return model.estimate(self._profile(n, batch, inverse))

    def crossover_batch(self, machine: MachineModel, n: int,
                        max_batch: int = 1 << 12) -> int | None:
        """Smallest batch size at which replicate beats split, if any.

        Below the crossover, a single huge transform is faster split
        over the machine; above it, whole-vector assignment wins.
        """
        split = BatchedDistributedNTT(self.cluster, strategy="split",
                                      inner=self.inner, tile=self.tile)
        replicate = BatchedDistributedNTT(self.cluster,
                                          strategy="replicate",
                                          tile=self.tile)
        b = 1
        while b <= max_batch:
            t_rep = replicate.estimate(machine, n, b).total_s
            t_split = split.estimate(machine, n, b).total_s
            if t_rep < t_split:
                return b
            b *= 2
        return None


def _vector_muls(n: int, inverse: bool) -> int:
    """Multiplies one replicated transform charges (inverse: the 1/n scale)."""
    return acct.local_ntt_muls(n) + (n if inverse else 0)
