"""Distributed NTT engines: layouts, baselines, and UniNTT."""

from repro.multigpu.accounting import (
    alltoall_bytes_per_gpu, local_ntt_mem_bytes, local_ntt_muls, log2_int,
    pointwise_mem_bytes, small_batch_mem_bytes, small_batch_ntt_muls,
    tile_passes, twiddle_muls,
)
from repro.multigpu.autotune import (
    EngineChoice, ScheduleChoice, autotune_tile, select_engine,
    select_schedule,
)
from repro.multigpu.abft import (
    AbftChecker, AbftVerdict, ProbeLedger, ProbeVector,
)
from repro.multigpu.base import (
    DistributedNTTEngine, DistributedVector, VectorCheckpoint, redistribute,
)
from repro.multigpu.baseline import BaselineFourStepEngine
from repro.multigpu.batch_engine import BatchedDistributedNTT
from repro.multigpu.hierarchical import HierarchicalUniNTTEngine
from repro.multigpu.pairwise import BitrevSpectralLayout, PairwiseExchangeEngine
from repro.multigpu.layout import (
    BlockLayout, ColumnBlockLayout, CyclicLayout, Layout, SpectralLayout,
    TransposedBlockLayout, UniNTTExchangeLayout, UniNTTLayout, collect,
    distribute,
)
from repro.multigpu.polynomial import DistributedPolynomial
from repro.multigpu.resilience import (
    ResilienceReport, ResilientNTTEngine, RetryPolicy,
)
from repro.multigpu.schedule import ALL_OFF, ALL_ON, UniNTTOptions, ablation_grid
from repro.multigpu.singlegpu import SingleGpuEngine
from repro.multigpu.streaming import StreamingEstimate, StreamingHostEngine
from repro.multigpu.unintt import UniNTTEngine

__all__ = [
    "Layout", "BlockLayout", "CyclicLayout", "SpectralLayout",
    "ColumnBlockLayout", "TransposedBlockLayout", "UniNTTExchangeLayout",
    "UniNTTLayout", "distribute", "collect",
    "DistributedVector", "DistributedNTTEngine", "redistribute",
    "VectorCheckpoint",
    "RetryPolicy", "ResilienceReport", "ResilientNTTEngine",
    "AbftChecker", "AbftVerdict", "ProbeLedger", "ProbeVector",
    "SingleGpuEngine", "BaselineFourStepEngine", "UniNTTEngine",
    "PairwiseExchangeEngine", "BitrevSpectralLayout",
    "BatchedDistributedNTT",
    "autotune_tile", "select_engine", "EngineChoice",
    "select_schedule", "ScheduleChoice",
    "DistributedPolynomial",
    "StreamingHostEngine", "StreamingEstimate",
    "HierarchicalUniNTTEngine",
    "UniNTTOptions", "ALL_ON", "ALL_OFF", "ablation_grid",
    "log2_int", "tile_passes", "local_ntt_muls", "local_ntt_mem_bytes",
    "small_batch_ntt_muls", "small_batch_mem_bytes", "twiddle_muls",
    "pointwise_mem_bytes", "alltoall_bytes_per_gpu",
]
