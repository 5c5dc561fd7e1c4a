"""Out-of-core transforms: when the polynomial exceeds cluster memory.

Production ZKP circuits (2^30+ BN254 elements = 32+ GiB per polynomial,
several live at once) can exceed even an 8-GPU node's HBM.  The classic
answer is the host-staged four-step: the array lives in host memory as
an R x C matrix; the GPUs stream column batches in, transform, twiddle,
stream back, then stream row batches.  Every element crosses PCIe four
times — the "host tax" this engine makes explicit, and the regime where
adding GPUs helps *bandwidth*, not just compute.

The functional simulator holds the "host array" as a plain list and
counts H2D/D2H traffic on a dedicated trace level ("host"); the time
estimate prices that traffic at the GPU's PCIe rate alongside the usual
compute/HBM charges.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.field.prime_field import PrimeField
from repro.hw.cost import CostModel
from repro.hw.model import MachineModel
from repro.multigpu import accounting as acct
from repro.multigpu.base import twiddle_table
from repro.ntt.batch import ntt_groups
from repro.ntt.fourstep import split_size
from repro.ntt.twiddle import default_cache
from repro.sim.cluster import SimCluster
from repro.sim.trace import TraceEvent

__all__ = ["StreamingEstimate", "StreamingHostEngine"]

#: PCIe 4.0 x16 per GPU, the standard host link.
DEFAULT_H2D_BANDWIDTH = 32e9


@dataclass(frozen=True)
class StreamingEstimate:
    """Modeled seconds for one out-of-core transform."""

    total_s: float
    pcie_s: float
    compute_s: float
    hbm_s: float
    host_bytes: int

    def dominant(self) -> str:
        parts = {"pcie": self.pcie_s, "compute": self.compute_s,
                 "hbm": self.hbm_s}
        return max(parts, key=parts.get)  # type: ignore[arg-type]


class StreamingHostEngine:
    """Host-resident four-step NTT streamed through the GPUs."""

    name = "streaming-host"

    def __init__(self, cluster: SimCluster, tile: int = 4096,
                 h2d_bandwidth: float = DEFAULT_H2D_BANDWIDTH):
        if h2d_bandwidth <= 0:
            raise SimulationError("h2d_bandwidth must be positive")
        self.cluster = cluster
        self.tile = tile
        self.h2d_bandwidth = h2d_bandwidth

    @property
    def field(self) -> PrimeField:
        return self.cluster.field

    # -- functional ------------------------------------------------------------

    def forward(self, host_values: list[int]) -> list[int]:
        """Transform a host-resident vector; returns the host result.

        The host array never fits the cluster by assumption, so only one
        batch of rows/columns is device-resident at a time.
        """
        return self._run(host_values, inverse=False)

    def inverse(self, host_values: list[int]) -> list[int]:
        """Inverse transform (includes the 1/n scaling)."""
        return self._run(host_values, inverse=True)

    def _run(self, host_values: list[int], inverse: bool) -> list[int]:
        n = len(host_values)
        if n == 0 or n & (n - 1):
            raise SimulationError(
                f"transform size must be a power of two, got {n}")
        field = self.field
        p = field.modulus
        rows, cols = split_size(n)
        if rows < 2 or cols < 2:
            raise SimulationError(
                f"streaming four-step needs n >= 4, got {n}")
        root = field.root_of_unity(n)
        if inverse:
            root = field.inv(root)
        n_inv = field.inv(n % p) if inverse else None
        eb = self.cluster.element_bytes
        data = list(host_values)

        # Pass 1: column transforms, streamed in per-GPU column batches:
        # transposed on the host, one batched kernel with the twiddle
        # (and 1/n) fused, transposed back.
        columns = [v for c in range(cols) for v in data[c::cols]]  # H2D
        columns = ntt_groups(field, columns, rows, pow(root, cols, p),
                             scale=n_inv, cache=default_cache,
                             post=twiddle_table(field, root, range(cols),
                                                rows))
        for c in range(cols):
            data[c::cols] = columns[c * rows:(c + 1) * rows]  # D2H
        self._charge_pass(n, rows, 2 * n * eb, detail="stream-columns")

        # Pass 2: row transforms, contiguous streams, one batched kernel.
        root_c = pow(root, rows, p)
        data = ntt_groups(field, data, cols, root_c, cache=default_cache)
        self._charge_pass(n, cols, 2 * n * eb, detail="stream-rows")

        # Final transpose read: performed host-side while writing out.
        out = [0] * n
        for k1 in range(rows):
            for k2 in range(cols):
                out[k1 + rows * k2] = data[k1 * cols + k2]
        return out

    def _charge_pass(self, n: int, transform_size: int, host_bytes: int,
                     detail: str) -> None:
        g = self.cluster.gpu_count
        eb = self.cluster.element_bytes
        per_gpu = n // g
        muls = (per_gpu // 2) * acct.log2_int(transform_size) \
            + per_gpu  # butterflies + fused twiddle/scale
        mem = 2 * per_gpu * eb * acct.tile_passes(transform_size,
                                                  self.tile)
        # The working set is host-resident (out-of-core): the devices
        # never hold it, so the hook advances the step counter only.
        self.cluster.charge_local(muls, mem, detail=detail, buffers=None)
        self.cluster.trace.record(TraceEvent(
            kind="host-staging", level="host",
            max_bytes_per_gpu=host_bytes // g, total_bytes=host_bytes,
            detail=detail))

    # -- analytic ----------------------------------------------------------------

    def estimate(self, machine: MachineModel, n: int) -> StreamingEstimate:
        """Price one out-of-core transform on ``machine``.

        Every element crosses PCIe four times (in+out per pass), spread
        over the machine's GPUs; compute and HBM charges follow the
        in-memory formulas.
        """
        model = CostModel(machine, self.field)
        eb = model.element_bytes
        rows, cols = split_size(n)
        g = machine.gpu_count
        host_bytes = 4 * n * eb
        pcie_s = host_bytes / (self.h2d_bandwidth * g)
        muls = (n // 2) * (acct.log2_int(max(rows, 2))
                           + acct.log2_int(max(cols, 2))) + 2 * n
        compute_s = model.compute_seconds(muls // g)
        hbm_bytes = 2 * n * eb * (acct.tile_passes(max(rows, 2), self.tile)
                                  + acct.tile_passes(max(cols, 2),
                                                     self.tile))
        hbm_s = model.memory_seconds(hbm_bytes // g)
        # PCIe transfers overlap with compute via double buffering:
        total = max(pcie_s, compute_s + hbm_s)
        return StreamingEstimate(total_s=total, pcie_s=pcie_s,
                                 compute_s=compute_s, hbm_s=hbm_s,
                                 host_bytes=host_bytes)
