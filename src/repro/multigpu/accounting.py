"""Shared resource-accounting formulas.

The program builders of :mod:`repro.multigpu.schedule` charge every op
from these functions; the executor charges the simulator what each op
declares and the cost model prices the same ops, so an engine's
counters and its profile cannot drift apart.  The single-GPU and
streaming engines, which have no program, call them both while
executing and in their closed-form profiles — the test suite asserts
simulator counters == profile charges for every engine.

All quantities are per GPU for one shard of ``m`` elements of
``element_bytes`` each.
"""

from __future__ import annotations

from repro.errors import HardwareModelError

__all__ = [
    "log2_int", "local_ntt_muls", "local_ntt_mem_bytes",
    "small_batch_ntt_muls", "small_batch_mem_bytes", "twiddle_muls",
    "pointwise_mem_bytes", "alltoall_bytes_per_gpu", "tile_passes",
]


def log2_int(n: int) -> int:
    """Exact log2 of a power of two."""
    if n < 1 or n & (n - 1):
        raise HardwareModelError(f"{n} is not a power of two")
    return n.bit_length() - 1


def tile_passes(n: int, tile: int) -> int:
    """Global-memory round trips for a tiled NTT of size n.

    A kernel that stages ``tile`` elements in fast memory retires
    ``log2(tile)`` butterfly stages per pass, so a size-n transform needs
    ``ceil(log2 n / log2 tile)`` passes.  ``tile=2`` degenerates to the
    naive one-pass-per-stage kernel.
    """
    if tile < 2:
        raise HardwareModelError(f"tile must be >= 2, got {tile}")
    ln = log2_int(n)
    if ln == 0:
        return 0
    lt = max(1, log2_int(1 << (tile.bit_length() - 1)))
    return -(-ln // lt)  # ceil division


def local_ntt_muls(m: int) -> int:
    """Twiddle multiplications of a radix-2 transform of size m."""
    if m <= 1:
        return 0
    return (m // 2) * log2_int(m)


def local_ntt_mem_bytes(m: int, element_bytes: int, tile: int) -> int:
    """HBM bytes of a tiled local transform: read+write per pass."""
    return 2 * m * element_bytes * tile_passes(m, tile)


def small_batch_ntt_muls(count: int, size: int) -> int:
    """Multiplications for ``count`` independent transforms of ``size``."""
    return count * local_ntt_muls(size)


def small_batch_mem_bytes(count: int, size: int, element_bytes: int) -> int:
    """One fused kernel sweeping all small transforms: one pass."""
    return 2 * count * size * element_bytes


def twiddle_muls(m: int) -> int:
    """A twiddle scaling touches every element once."""
    return m


def pointwise_mem_bytes(m: int, element_bytes: int) -> int:
    """A standalone element-wise pass: read + write the shard."""
    return 2 * m * element_bytes


def alltoall_bytes_per_gpu(m: int, gpu_count: int, element_bytes: int) -> int:
    """Bytes one GPU sends in a balanced all-to-all of its m-element shard."""
    if m % gpu_count:
        raise HardwareModelError(
            f"shard of {m} does not split over {gpu_count} GPUs")
    return (m // gpu_count) * (gpu_count - 1) * element_bytes
