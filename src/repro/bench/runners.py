"""Experiment drivers: one function per reconstructed table/figure.

Each runner returns ``(headers, rows)`` ready for
:func:`repro.bench.reporting.format_table`; the ``benchmarks/`` files
wrap them in pytest-benchmark targets and persist the reports.  Keeping
the sweeps here lets the example scripts regenerate the same numbers.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence, TypeVar

from repro.bench.reporting import geomean
from repro.field.presets import BLS12_381_FR
from repro.field.prime_field import PrimeField
from repro.hw.cost import CostModel
from repro.hw.machines import ALL_MACHINES, DGX_A100
from repro.hw.model import MachineModel
from repro.multigpu.baseline import BaselineFourStepEngine
from repro.multigpu.pairwise import PairwiseExchangeEngine
from repro.multigpu.base import DistributedVector
from repro.multigpu.schedule import ablation_grid
from repro.multigpu.singlegpu import SingleGpuEngine
from repro.multigpu.unintt import UniNTTEngine
from repro.sim.cluster import SimCluster
from repro.zkp.pipeline import EndToEndModel

__all__ = [
    "platforms_table", "workloads_table", "single_gpu_comparison",
    "multi_gpu_scaling", "headline_speedups", "comm_breakdown",
    "ablation", "end_to_end", "batch_throughput",
    "interconnect_sensitivity", "multi_node_scaling",
    "stark_end_to_end", "backend_comparison", "resilience_overhead",
    "serving_throughput", "durability_degradation",
    "bigfield_comparison", "schedule_synthesis", "fleet_scaling",
    "packed_prover_pipeline", "best_of",
]

Row = Sequence[object]
Table = tuple[list[str], list[list[object]]]
T = TypeVar("T")


def best_of(fn: Callable[[], T], repeats: int) -> tuple[float, T | None]:
    """Best wall-clock seconds over ``repeats`` calls of ``fn``, and the
    last call's result.

    The one timer of the measured F-tables.  Runners that interleave
    their columns (F23, F26) take one sample per column per repeat
    (``repeats=1``), so every column sees the same machine regime.
    """
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def platforms_table() -> Table:
    """T1: the simulated hardware platforms."""
    headers = ["machine", "gpus", "gpu model", "HBM GB/s", "word-mul/s",
               "interconnect", "link GB/s", "P2P"]
    rows = []
    for machine in ALL_MACHINES:
        ic = machine.interconnect
        rows.append([
            machine.name, machine.gpu_count, machine.gpu.name,
            machine.gpu.hbm_bandwidth / 1e9,
            f"{machine.gpu.word_mul_per_s:.2e}",
            ic.kind, ic.link_bandwidth / 1e9,
            "yes" if ic.peer_to_peer else "no",
        ])
    return headers, rows


def workloads_table() -> Table:
    """T2: the benchmark workload grid."""
    from repro.bench.workloads import standard_workloads
    from repro.hw.cost import field_limbs

    headers = ["workload", "field bits", "limbs", "size", "bytes/elem",
               "total MB"]
    rows = []
    for workload in standard_workloads():
        field = workload.field
        limbs = field_limbs(field)
        rows.append([
            workload.label(), field.modulus.bit_length(), limbs,
            workload.size, limbs * 8,
            workload.elements * limbs * 8 / 2**20,
        ])
    return headers, rows


def single_gpu_comparison(machine: MachineModel = DGX_A100,
                          field: PrimeField = BLS12_381_FR,
                          log_sizes: Sequence[int] = (12, 16, 20, 24, 26),
                          ) -> Table:
    """F7: single-GPU NTT, naive global-memory kernel vs tiled kernel.

    Throughput in 10^6 elements/second for one GPU (gather/scatter
    excluded by using a 1-GPU cluster).
    """
    headers = ["log2(n)", "naive ms", "tiled ms", "speedup",
               "naive Melem/s", "tiled Melem/s"]
    rows = []
    single = machine.with_gpu_count(1)
    cluster = SimCluster(field, 1)
    naive = SingleGpuEngine(cluster, naive=True)
    tiled = SingleGpuEngine(cluster, naive=False)
    for log_size in log_sizes:
        n = 1 << log_size
        t_naive = naive.estimate(single, n).total_s
        t_tiled = tiled.estimate(single, n).total_s
        rows.append([
            log_size, t_naive * 1e3, t_tiled * 1e3,
            t_naive / t_tiled,
            n / t_naive / 1e6, n / t_tiled / 1e6,
        ])
    return headers, rows


def multi_gpu_scaling(machine: MachineModel = DGX_A100,
                      field: PrimeField = BLS12_381_FR,
                      gpu_counts: Sequence[int] = (1, 2, 4, 8),
                      log_sizes: Sequence[int] = (20, 24, 28),
                      ) -> Table:
    """F8: UniNTT vs baseline vs single-GPU across GPU counts and sizes."""
    headers = ["log2(n)", "gpus", "single ms", "baseline ms", "unintt ms",
               "unintt vs baseline", "unintt vs single"]
    rows = []
    for log_size in log_sizes:
        n = 1 << log_size
        for gpus in gpu_counts:
            sub_machine = machine.with_gpu_count(gpus)
            cluster = SimCluster(field, gpus)
            t_single = SingleGpuEngine(cluster).estimate(
                sub_machine, n).total_s
            if gpus == 1:
                rows.append([log_size, gpus, t_single * 1e3, "-", "-",
                             "-", "-"])
                continue
            t_base = BaselineFourStepEngine(cluster).estimate(
                sub_machine, n).total_s
            t_uni = UniNTTEngine(cluster).estimate(sub_machine, n).total_s
            rows.append([
                log_size, gpus, t_single * 1e3, t_base * 1e3, t_uni * 1e3,
                t_base / t_uni, t_single / t_uni,
            ])
    return headers, rows


def headline_speedups(field: PrimeField = BLS12_381_FR,
                      log_sizes: Sequence[int] = (20, 22, 24, 26, 28),
                      machines: Sequence[MachineModel] | None = None,
                      ) -> Table:
    """F8 summary: per-machine geomean speedups (the 4.26x headline)."""
    headers = ["machine", "geomean vs baseline", "geomean vs single-gpu"]
    rows: list[list[object]] = []
    machines = list(machines) if machines is not None else list(ALL_MACHINES)
    vs_base_all: list[float] = []
    vs_single_all: list[float] = []
    for machine in machines:
        cluster = SimCluster(field, machine.gpu_count)
        uni = UniNTTEngine(cluster)
        base = BaselineFourStepEngine(cluster)
        single = SingleGpuEngine(cluster)
        vs_base = []
        vs_single = []
        for log_size in log_sizes:
            n = 1 << log_size
            t_uni = uni.estimate(machine, n).total_s
            vs_base.append(base.estimate(machine, n).total_s / t_uni)
            vs_single.append(single.estimate(machine, n).total_s / t_uni)
        vs_base_all.extend(vs_base)
        vs_single_all.extend(vs_single)
        rows.append([machine.name, geomean(vs_base), geomean(vs_single)])
    rows.append(["OVERALL", geomean(vs_base_all), geomean(vs_single_all)])
    return headers, rows


def comm_breakdown(field: PrimeField = BLS12_381_FR,
                   gpu_count: int = 8, log_size: int = 12) -> Table:
    """F9: measured bytes by hierarchy level and collective count.

    Runs the functional simulator (hence the modest default size; byte
    *ratios* are size-independent, asserted by the test suite).
    """
    headers = ["engine", "collectives", "inter-GPU MB", "HBM MB",
               "inter-GPU bytes/elem"]
    rows = []
    n = 1 << log_size
    import random
    rng = random.Random(0)
    values = field.random_vector(n, rng)
    for engine_cls in (BaselineFourStepEngine, PairwiseExchangeEngine,
                       UniNTTEngine):
        cluster = SimCluster(field, gpu_count)
        engine = engine_cls(cluster)
        vec = DistributedVector.from_values(cluster, values,
                                            engine.input_layout(n))
        engine.forward(vec)
        by_level = cluster.trace.bytes_by_level()
        inter = by_level.get("multi-gpu", 0)
        hbm = by_level.get("gpu", 0)
        rows.append([
            engine.name, cluster.trace.collective_count(),
            inter / 2**20, hbm / 2**20, inter / n,
        ])
    return headers, rows


def ablation(machine: MachineModel = DGX_A100,
             field: PrimeField = BLS12_381_FR,
             log_size: int = 24) -> Table:
    """F10: each uniform optimization toggled off individually."""
    headers = ["configuration", "time ms", "slowdown vs all-on"]
    rows = []
    n = 1 << log_size
    cluster = SimCluster(field, machine.gpu_count)
    reference = None
    for label, options in ablation_grid():
        engine = UniNTTEngine(cluster, options=options)
        t = engine.estimate(machine, n).total_s
        if reference is None:
            reference = t
        rows.append([label, t * 1e3, t / reference])
    return headers, rows


def end_to_end(machine: MachineModel = DGX_A100,
               log_constraints: Sequence[int] = (18, 20, 22),
               profile=None) -> Table:
    """F11: proof-generation time under four system configurations.

    ``profile`` selects the proof system (Groth16 by default; pass
    :data:`repro.zkp.PLONK_PROFILE` for the PLONK recipe).
    """
    headers = ["log2(constraints)", "config", "ntt ms", "msm ms",
               "total ms", "ntt %", "speedup vs sota"]
    from repro.field.presets import BN254_FR
    from repro.zkp.profiles import GROTH16_PROFILE

    if profile is None:
        profile = GROTH16_PROFILE
    rows = []
    gpus = machine.gpu_count
    configs = [
        ("all-single-gpu", SingleGpuEngine(SimCluster(BN254_FR, gpus)), 1),
        ("sota (msm multi, ntt single)",
         SingleGpuEngine(SimCluster(BN254_FR, gpus)), gpus),
        ("baseline-multintt",
         BaselineFourStepEngine(SimCluster(BN254_FR, gpus)), gpus),
        ("unintt", UniNTTEngine(SimCluster(BN254_FR, gpus)), gpus),
    ]
    for log_c in log_constraints:
        constraints = 1 << log_c
        sota_total = None
        for name, engine, msm_gpus in configs:
            model = EndToEndModel(machine, engine, msm_gpus=msm_gpus,
                                  profile=profile)
            est = model.proof_cost(constraints)
            if name.startswith("sota"):
                sota_total = est.total_s
            speedup = (f"{sota_total / est.total_s:.2f}x"
                       if sota_total else "-")
            rows.append([
                log_c, name, est.ntt_s * 1e3, est.msm_s * 1e3,
                est.total_s * 1e3, round(est.ntt_fraction() * 100),
                speedup,
            ])
    return headers, rows


def batch_throughput(machine: MachineModel = DGX_A100,
                     field: PrimeField = BLS12_381_FR,
                     log_size: int = 18,
                     batches: Sequence[int] = (1, 4, 16, 64),
                     ) -> Table:
    """T3: batched NTT throughput (transforms amortize launch latency)."""
    headers = ["batch", "unintt ms/batch", "Melem/s", "vs batch=1"]
    rows = []
    n = 1 << log_size
    cluster = SimCluster(field, machine.gpu_count)
    engine = UniNTTEngine(cluster)
    model = CostModel(machine, field)
    base_rate = None
    for batch in batches:
        profile = engine.forward_profile(n)
        single = model.estimate(profile).total_s
        # Back-to-back transforms pipeline: per-collective latency is
        # paid once per batch, bandwidth/compute scale linearly.
        latency = machine.interconnect.latency
        total = single * batch - latency * (batch - 1)
        rate = batch * n / total / 1e6
        if base_rate is None:
            base_rate = rate
        rows.append([batch, total / batch * 1e3, rate, rate / base_rate])
    return headers, rows


def interconnect_sensitivity(field: PrimeField = BLS12_381_FR,
                             log_size: int = 24) -> Table:
    """F12: the same engines across interconnect families."""
    headers = ["machine", "baseline ms", "pairwise ms", "unintt ms",
               "speedup vs baseline", "unintt bottleneck"]
    rows = []
    n = 1 << log_size
    for machine in ALL_MACHINES:
        cluster = SimCluster(field, machine.gpu_count)
        t_base = BaselineFourStepEngine(cluster).estimate(machine, n)
        t_pair = PairwiseExchangeEngine(cluster).estimate(machine, n)
        uni = UniNTTEngine(cluster)
        t_uni = uni.estimate(machine, n)
        rows.append([
            machine.name, t_base.total_s * 1e3, t_pair.total_s * 1e3,
            t_uni.total_s * 1e3,
            t_base.total_s / t_uni.total_s,
            t_uni.dominant_resource(),
        ])
    return headers, rows


def multi_node_scaling(field: PrimeField = BLS12_381_FR,
                       node_counts: Sequence[int] = (2, 4, 8),
                       log_sizes: Sequence[int] = (24, 28)) -> Table:
    """F14: scaling past one node — hierarchical vs topology-unaware.

    Flat engines see all GPUs behind the inter-node network (the NCCL
    all-to-all reality); the hierarchical engine splits traffic between
    the NVSwitch and InfiniBand fabrics via the two-level recursion.
    """
    from repro.hw.machines import DGX_A100
    from repro.hw.multinode import MultiNodeMachine
    from repro.hw.topology import infiniband
    from repro.multigpu.hierarchical import HierarchicalUniNTTEngine

    headers = ["nodes", "log2(n)", "flat-baseline ms", "flat-unintt ms",
               "hierarchical ms", "hier vs flat-unintt",
               "hier vs flat-baseline"]
    rows = []
    for nodes in node_counts:
        cluster_machine = MultiNodeMachine(
            name=f"{nodes}xDGX-A100", node=DGX_A100, node_count=nodes,
            network=infiniband())
        flat_machine = cluster_machine.flattened()
        total = cluster_machine.total_gpus
        for log_size in log_sizes:
            n = 1 << log_size
            hier_cluster = SimCluster(field, total, node_size=8)
            t_hier = HierarchicalUniNTTEngine(hier_cluster).estimate(
                cluster_machine, n).total_s
            flat_cluster = SimCluster(field, total)
            t_uni = UniNTTEngine(flat_cluster).estimate(
                flat_machine, n).total_s
            t_base = BaselineFourStepEngine(flat_cluster).estimate(
                flat_machine, n).total_s
            rows.append([
                nodes, log_size, t_base * 1e3, t_uni * 1e3, t_hier * 1e3,
                t_uni / t_hier, t_base / t_hier,
            ])
    return headers, rows


def schedule_synthesis(field: PrimeField = BLS12_381_FR,
                       log_size: int = 24) -> Table:
    """F24: hand-written vs synthesized communication schedules.

    For each topology, every verified schedule candidate the pass
    framework and hierarchical synthesis offer is priced two ways:
    sequential :class:`~repro.hw.plancost.PlanCost` (level-by-level,
    validated) and the overlap-aware modeled wall-clock the autotuner
    ranks by.  On the multi-node clusters the winner is the synthesized
    stage+rail decomposition — the paper's hierarchy argument, derived
    and proved by the rewriter instead of hand-coded.
    """
    from repro.hw.multinode import FOUR_NODE_DGX_A100, MultiNodeMachine
    from repro.hw.topology import infiniband
    from repro.multigpu.autotune import select_schedule

    two_node = MultiNodeMachine(name="2xDGX-A100", node=DGX_A100,
                                node_count=2, network=infiniband())
    topologies = [
        DGX_A100.with_gpu_count(2),
        DGX_A100.with_gpu_count(4),
        DGX_A100,
        two_node,
        FOUR_NODE_DGX_A100,
    ]
    headers = ["topology", "GPUs", "schedule", "sequential ms",
               "modeled ms", "origin", "selected"]
    rows = []
    n = 1 << log_size
    for machine in topologies:
        total = machine.total_gpus if hasattr(machine, "node_count") \
            else machine.gpu_count
        for rank, choice in enumerate(select_schedule(machine, field, n)):
            rows.append([
                machine.name, total, choice.name,
                choice.cost.total_s * 1e3, choice.seconds * 1e3,
                "synthesized" if choice.synthesized else "hand-written",
                "yes" if rank == 0 else "",
            ])
    return headers, rows


def stark_end_to_end(machine: MachineModel = DGX_A100,
                     log_traces: Sequence[int] = (18, 20, 22)) -> Table:
    """F15: hash-based (STARK) proof generation — no MSM to hide behind.

    The strongest version of the motivation: with Merkle commitments
    instead of MSMs, the NTT share of proof time is 60-75% and the
    multi-GPU NTT choice moves whole-proof time by >2x.
    """
    from repro.field.presets import GOLDILOCKS
    from repro.zkp.stark_model import StarkCostModel

    headers = ["log2(trace)", "engine", "ntt ms", "hash ms", "total ms",
               "ntt %", "speedup vs single"]
    rows = []
    gpus = machine.gpu_count
    for log_trace in log_traces:
        trace = 1 << log_trace
        base_total = None
        for name, engine in (
                ("single-gpu", SingleGpuEngine(SimCluster(GOLDILOCKS,
                                                          gpus))),
                ("baseline", BaselineFourStepEngine(SimCluster(GOLDILOCKS,
                                                               gpus))),
                ("unintt", UniNTTEngine(SimCluster(GOLDILOCKS, gpus)))):
            model = StarkCostModel(machine, engine)
            est = model.proof_cost(trace)
            if base_total is None:
                base_total = est.total_s
            rows.append([
                log_trace, name, est.ntt_s * 1e3, est.hash_s * 1e3,
                est.total_s * 1e3, round(est.ntt_fraction() * 100),
                f"{base_total / est.total_s:.2f}x",
            ])
    return headers, rows


def backend_comparison(log_sizes: Sequence[int] = (10, 12, 14),
                       repeats: int = 3) -> Table:
    """F19: measured field-backend comparison on a real radix-2 NTT.

    Unlike the other runners this one does not price a cost model — it
    wall-clock-times the actual transform under each registered compute
    backend (pure-Python reference vs the vectorized numpy kernels) over
    Goldilocks, the field whose 64-bit lanes stress the multi-word
    arithmetic most.  When numpy is unavailable the numpy column reads
    ``n/a`` and the speedup is 1.0.
    """
    import random

    from repro.field import available_backends, use_backend
    from repro.field.presets import GOLDILOCKS
    from repro.ntt.radix2 import ntt

    def best_time(backend: str, values: list[int]) -> float:
        with use_backend(backend):
            ntt(GOLDILOCKS, values)  # warm the twiddle cache
            return best_of(lambda: ntt(GOLDILOCKS, values), repeats)[0]

    have_numpy = available_backends()["numpy"]
    headers = ["log2(n)", "field", "python ms", "numpy ms", "speedup"]
    rows = []
    rng = random.Random(2024)
    for log_n in log_sizes:
        values = GOLDILOCKS.random_vector(1 << log_n, rng)
        t_py = best_time("python", values)
        if have_numpy:
            t_np = best_time("numpy", values)
            rows.append([log_n, GOLDILOCKS.name, t_py * 1e3, t_np * 1e3,
                        f"{t_py / t_np:.1f}x"])
        else:
            rows.append([log_n, GOLDILOCKS.name, t_py * 1e3, "n/a", "1.0x"])
    return headers, rows


def bigfield_comparison(log_sizes: Sequence[int] = (10, 12, 14, 16),
                        repeats: int = 7) -> Table:
    """F23: measured multi-limb backend comparison on the big ZKP fields.

    Wall-clock-times the radix-2 NTT over BN254-Fr and BLS12-381-Fr
    under the pure-Python reference and the ``numpy`` backend's
    limb-plane kernels (``repro.field.multilimb``, selected by the name
    ``multilimb``).  Two timings are reported for the
    multi-limb side, mirroring how the paper reports GPU kernels:

    * **e2e** — the full list-in/list-out call, including the
      limb pack/unpack conversion at the boundary (the analogue of
      host<->device transfers);
    * **resident** — the transform alone on already-packed limb
      planes with resident twiddle tables, the regime a proof
      pipeline runs in when data stays packed across
      NTT -> pointwise -> INTT (the analogue of device-resident
      kernel time).

    The three timings are *interleaved* — each repeat times python,
    then e2e, then resident back to back — so all columns sample the
    same machine regime (on a shared host, memory-bandwidth contention
    hits the vectorized side much harder than the cache-resident
    pure-Python loop, and sequential measurement would skew the
    ratios).  Best-of-``repeats`` per column.  When numpy is
    unavailable the multi-limb columns read ``n/a`` and speedups
    are 1.0.
    """
    import random

    from repro.field import NumPyBackend, available_backends, use_backend
    from repro.field.presets import BN254_FR
    from repro.ntt.radix2 import ntt
    from repro.ntt.twiddle import TwiddleCache

    fields = (BN254_FR, BLS12_381_FR)

    have_numpy = available_backends()["multilimb"]
    headers = ["log2(n)", "field", "python ms", "multilimb ms",
               "e2e speedup", "resident ms", "resident speedup"]
    rows = []
    rng = random.Random(2024)
    cache = TwiddleCache()
    backend = NumPyBackend() if have_numpy else None
    for log_n in log_sizes:
        n = 1 << log_n
        for field in fields:
            values = field.random_vector(n, rng)

            def run_python():
                with use_backend("python"):
                    return ntt(field, values, cache)

            if not have_numpy:
                run_python()  # warm the twiddle cache
                t_py, _ = best_of(run_python, repeats)
                rows.append([log_n, field.name, t_py * 1e3, "n/a",
                             "1.0x", "n/a", "1.0x"])
                continue

            def run_e2e():
                with use_backend("multilimb"):
                    return ntt(field, values, cache)

            ops = backend.lane_ops(field)
            packed = ops.pack(values)
            root = field.root_of_unity(n)
            table = cache.packed_powers(
                field, root, n // 2, ops.pack_table, fmt=ops.fmt)

            def run_resident():
                return ops.ntt_core(packed, table)

            # Warm every path (twiddles, scratch, packed stage tables),
            # then interleave the measured repeats.
            run_python(), run_e2e(), run_resident()
            t_py = t_ml = t_res = float("inf")
            for _ in range(repeats):
                t_py = min(t_py, best_of(run_python, 1)[0])
                t_ml = min(t_ml, best_of(run_e2e, 1)[0])
                t_res = min(t_res, best_of(run_resident, 1)[0])
            rows.append([
                log_n, field.name, t_py * 1e3, t_ml * 1e3,
                f"{t_py / t_ml:.1f}x", t_res * 1e3,
                f"{t_py / t_res:.1f}x",
            ])
    return headers, rows


def resilience_overhead(log_size: int = 10, gpus: int = 8,
                        machine: MachineModel = DGX_A100) -> Table:
    """F20: modeled cost of recovering from injected faults.

    Each scenario runs the same forward transform functionally on the
    simulator under one seeded fault, recovers through the resilient
    engine (retry, checksum-triggered retry, degradation pricing, or
    re-shard onto survivors), verifies the output stayed bit-exact, and
    prices the whole run — wasted attempts, backoff, checkpoints, and
    reshard traffic included — on ``machine``.  The overhead column is
    the slowdown versus the fault-free run of the identical transform.
    """
    import random

    from repro.analysis.tracecheck import check_trace
    from repro.field.presets import GOLDILOCKS
    from repro.multigpu.resilience import ResilientNTTEngine
    from repro.ntt import ntt
    from repro.sim.faults import FaultInjector, FaultPlan

    n = 1 << log_size
    scenarios = [
        ("fault-free", []),
        ("transient-comm", ["transient-comm@0"]),
        ("corrupt-shard", ["corrupt-shard@0:gpu=1,delta=13"]),
        ("link-degrade", ["link-degrade@0:factor=0.25"]),
        ("straggler", ["straggler@0:gpu=3,factor=4"]),
        ("device-death", ["device-death@0:gpu=2"]),
    ]
    headers = ["scenario", "gpus", "modeled ms", "overhead", "retries",
               "reshards", "outcome"]
    rows: list[list[object]] = []
    values = GOLDILOCKS.random_vector(n, random.Random(0xF20))
    want = ntt(GOLDILOCKS, values)
    base = None
    for name, specs in scenarios:
        plan = FaultPlan.from_specs(specs, seed=0xF20)
        cluster = SimCluster(
            GOLDILOCKS, gpus,
            injector=FaultInjector(plan, GOLDILOCKS.modulus))
        engine = ResilientNTTEngine(cluster, UniNTTEngine)
        vec = DistributedVector.from_values(cluster, values,
                                            engine.input_layout(n))
        got = engine.forward(vec).to_values()
        findings = check_trace(cluster.trace)
        cost = engine.report.plan_cost(machine)
        if base is None:
            base = cost.total_s
        outcome = "bit-exact" if got == want else "MISMATCH"
        outcome += ", clean trace" if not findings \
            else f", {len(findings)} finding(s)"
        rows.append([name, engine.gpu_count, cost.total_s * 1e3,
                     f"{cost.total_s / base:.2f}x",
                     engine.report.retries, engine.report.reshards,
                     outcome])
    return headers, rows


def sdc_defense(log_size: int = 14, gpus: int = 8, reps: int = 8,
                machine: MachineModel = DGX_A100) -> Table:
    """F27: ABFT checksum overhead and silent-corruption detection.

    The first two rows price the Freivalds verification itself: the
    same ``reps`` forward transforms with ABFT off and on, no faults
    injected — the ``overhead`` column of the ``abft-clean`` row is
    the steady cost of verify-before-emit (the O(n) probe build
    amortizes across the ledger's lifetime, exactly as twiddle tables
    do; each leg then pays two length-n dot products, data-parallel
    across the devices).  The remaining rows
    inject one silent compute fault each (an additive bitflip, a
    multiplicative twiddle corruption, and a sticky mercurial device)
    and must recover bit-exactly with *every* fired corruption claimed
    by an ``abft-detect`` event — the ``detected`` column counts
    fired/claimed pairs and the trace audit (which includes the
    ``trace.undetected-corruption`` rule) certifies the pairing.
    """
    import random

    from repro.analysis.tracecheck import check_trace
    from repro.field.presets import GOLDILOCKS
    from repro.multigpu.resilience import ResilientNTTEngine, RetryPolicy
    from repro.ntt import ntt
    from repro.sim.faults import COMPUTE_KINDS, FaultInjector, FaultPlan

    n = 1 << log_size
    scenarios = [
        ("no-abft-clean", [], False),
        ("abft-clean", [], True),
        ("compute-bitflip", ["compute-bitflip@0:gpu=1,delta=9"], True),
        ("twiddle-corrupt", ["twiddle-corrupt@0:gpu=2,delta=3"], True),
        ("mercurial-device",
         ["mercurial-device@0:gpu=1,factor=0.15,delta=5"], True),
    ]
    headers = ["scenario", "gpus", "modeled ms", "overhead", "probes",
               "detected", "reexecs", "outcome"]
    rows: list[list[object]] = []
    values = GOLDILOCKS.random_vector(n, random.Random(0xF27))
    want = ntt(GOLDILOCKS, values)
    base = None
    for name, specs, abft in scenarios:
        plan = FaultPlan.from_specs(specs, seed=0xF27)
        cluster = SimCluster(
            GOLDILOCKS, gpus,
            injector=FaultInjector(plan, GOLDILOCKS.modulus))
        # The sticky mercurial device re-corrupts retries with
        # probability ``factor`` per local step; give the recovery
        # loop headroom (the clean and one-shot rows never use it).
        engine = ResilientNTTEngine(
            cluster, UniNTTEngine, abft=abft,
            policy=RetryPolicy(max_attempts=10), seed=0xF27)
        for _ in range(reps):
            vec = DistributedVector.from_values(cluster, values,
                                                engine.input_layout(n))
            got = engine.forward(vec).to_values()
            if got != want:
                break
        findings = check_trace(cluster.trace)
        cost = engine.report.plan_cost(machine)
        if base is None:
            base = cost.total_s
        fired = sum(1 for e in cluster.trace.events
                    if e.kind == "fault"
                    and e.detail.partition("@")[0] in COMPUTE_KINDS)
        claimed = sum(1 for e in cluster.trace.events
                      if e.kind == "abft-detect")
        checker = engine.abft_checker
        outcome = "bit-exact" if got == want else "MISMATCH"
        outcome += ", clean trace" if not findings \
            else f", {len(findings)} finding(s)"
        rows.append([name, engine.gpu_count, cost.total_s * 1e3,
                     f"{cost.total_s / base:.3f}x",
                     checker.probes if checker is not None else 0,
                     f"{claimed}/{fired}",
                     checker.reexecutions if checker is not None else 0,
                     outcome])
    return headers, rows


def serving_throughput(log_size: int = 10,
                       machine: MachineModel = DGX_A100) -> Table:
    """F21: served throughput vs offered load, batched vs one-at-a-time.

    Each row offers a burst of concurrent same-shape requests to two
    servers: the baseline serves them strictly one per dispatch with
    per-dispatch planning and twiddle generation redone every time;
    the batched server coalesces compatible requests into one dispatch
    and reuses the plan/twiddle caches across the run.  Both runs are
    functional (every output is checked bit-exactly against the
    reference transform) and priced on ``machine``; the speedup column
    is the throughput ratio at that offered load.
    """
    from repro.ntt import ntt
    from repro.serve import ProofServer, WorkloadSpec, generate_workload

    field = BLS12_381_FR
    headers = ["offered load", "one-at-a-time req/s", "batched req/s",
               "speedup", "batches", "batched p99 ms", "outcome"]
    rows: list[list[object]] = []
    for load in (1, 2, 4, 8, 16):
        spec = WorkloadSpec(requests=load, log_sizes=(log_size,),
                            field_names=(field.name,), seed=0xF21)
        workload = generate_workload(spec)
        baseline = ProofServer(machine, batching=False,
                               caching=False).serve(workload)
        batched = ProofServer(machine).serve(workload)
        exact = all(
            list(out) == ntt(field, list(lane))
            for report in (baseline, batched)
            for result in report.results
            for lane, out in zip(result.request.vectors(),
                                 result.outputs))
        rows.append([
            load,
            baseline.throughput_rps(),
            batched.throughput_rps(),
            f"{batched.throughput_rps() / baseline.throughput_rps():.2f}x",
            batched.batches,
            batched.latency_percentiles_s()["p99"] * 1e3,
            "bit-exact" if exact else "MISMATCH",
        ])
    return headers, rows


def durability_degradation(log_size: int = 8,
                           machine: MachineModel = DGX_A100) -> Table:
    """F22: crash-recovery cost and degraded-mode goodput.

    Part one (the ``crash@...`` rows) serves a fixed workload through
    the write-ahead journal, kills the server at injected journal
    sequence numbers, and replays the journal until the run drains:
    every recovered run must merge to outputs bit-identical to the
    uninterrupted run, with the recovery downtime priced and counted.
    Part two (the ``faults ...`` rows) offers the same workload under
    increasingly hostile fabric faults twice — once with bounded
    retries only, once with the graceful-degradation controller
    (breakers, single-GPU fallback, shedding) — and records the
    goodput of each arm.  At sustained fault rates the retry-only arm
    dies with retries exhausted while the degraded arm keeps serving:
    that contrast is the acceptance artifact for degraded mode.
    """
    from repro.analysis.tracecheck import check_trace
    from repro.errors import ServeError
    from repro.field.presets import GOLDILOCKS
    from repro.ntt import ntt
    from repro.serve import (
        DegradePolicy, ProofServer, WorkloadSpec, WriteAheadJournal,
        generate_workload, serve_durably,
    )
    from repro.sim.faults import FaultInjector, FaultPlan

    spec = WorkloadSpec(requests=16, log_sizes=(log_size,),
                        field_names=(GOLDILOCKS.name,),
                        mean_interarrival_s=2e-5, deadline_s=1.0,
                        seed=0xF22)
    workload = generate_workload(spec)
    # split + no batching so every dispatch runs collectives the fault
    # injector can gate, and so crashes land between many dispatches.
    config = dict(strategy="split", batching=False)

    clean = ProofServer(machine, **config).serve(workload)
    reference = {r.request.request_id: r.outputs for r in clean.results}

    def outcome_of(results, trace) -> str:
        exact = all(reference[r.request.request_id] == r.outputs
                    for r in results)
        findings = check_trace(trace)
        label = "bit-exact" if exact else "MISMATCH"
        label += ", clean trace" if not findings \
            else f", {len(findings)} finding(s)"
        return label

    headers = ["scenario", "completed", "recoveries", "replayed",
               "fallback", "shed", "recovery ms", "goodput req/s",
               "outcome"]
    rows: list[list[object]] = []

    journaled = ProofServer(machine, journal=WriteAheadJournal(),
                            snapshot_every=8, **config)
    base = journaled.serve(workload)
    rows.append(["uninterrupted (journaled)", base.completed, 0, 0, 0, 0,
                 0.0, base.throughput_rps(),
                 outcome_of(base.results, journaled.trace)])

    for label, steps in (("crash@5", (5,)), ("crash@30", (30,)),
                         ("crash@5,30,55", (5, 30, 55))):
        journal = WriteAheadJournal()
        crash = FaultPlan.from_specs(
            [f"server-crash@{s}" for s in steps], seed=0xF22)
        outcome = serve_durably(
            workload,
            lambda: ProofServer(machine, journal=journal,
                                snapshot_every=8, crash_plan=crash,
                                **config))
        recovery_ms = sum(leg.recovery_s for leg in outcome.legs) * 1e3
        replayed = sum(leg.replayed_records for leg in outcome.legs)
        rows.append([f"{label} -> recover", len(outcome.results),
                     outcome.recoveries, replayed, 0, 0, recovery_ms,
                     outcome.report.throughput_rps(),
                     outcome_of(outcome.results,
                                outcome.server.trace)])

    fault_grid = (
        ("faults 1-shot", ["transient-comm@0:count=1"]),
        ("faults bursty", [f"transient-comm@{s}:count=2"
                           for s in range(0, 200, 25)]),
        ("faults sustained", ["transient-comm@0:count=100000"]),
    )
    for label, specs in fault_grid:
        plan = FaultPlan.from_specs(specs, seed=0xF22)
        for arm, policy in (("retry-only", None),
                            ("degraded", DegradePolicy(
                                breaker_threshold=2))):
            server = ProofServer(
                machine, injector=FaultInjector(plan, GOLDILOCKS.modulus),
                degrade=policy, **config)
            try:
                report = server.serve(workload)
                note = outcome_of(report.results, server.trace)
            except ServeError as error:
                report = getattr(error, "report", None)
                if report is None:
                    raise
                note = "FAILED: retries exhausted"
            rows.append([f"{label}, {arm}", report.completed, 0, 0,
                         report.fallback_dispatches, report.shed, 0.0,
                         report.throughput_rps(), note])
    return headers, rows


def fleet_scaling(served_requests: int = 96,
                  machine: MachineModel = DGX_A100) -> Table:
    """F25: fleet goodput vs replica count, with and without a kill.

    The workload is the head of a *million-request* ZKProphet-style
    stream — diurnal rate modulation, periodic bursts, a weighted
    three-tenant mix, mixed transform shapes — produced by the lazy
    :func:`~repro.serve.workload.iter_workload` generator.  The first
    row streams the full million requests through the generator
    (counting, never materializing) to show the generator itself is
    fleet-scale; the served rows take the stream's prefix, which is
    byte-identical to generating the smaller spec directly.

    Each fleet size then serves that prefix twice: untouched, and with
    one replica crashed mid-run (``replica-crash`` at heartbeat tick
    2), exercising the failure detector and journaled failover.  Every
    completed output is checked bit-exactly against the reference
    transform and every trace must audit clean — failover is not
    allowed to trade correctness for goodput.  The acceptance contrast
    is against F22: a 4-replica fleet *under a kill* must sustain
    strictly higher goodput than F22's degraded single server.
    """
    from dataclasses import replace

    from repro.analysis.tracecheck import check_trace
    from repro.field.presets import GOLDILOCKS
    from repro.ntt import intt, ntt
    from repro.serve import (
        FleetPolicy, FleetServer, WorkloadSpec, generate_workload,
        iter_workload,
    )
    from repro.sim.faults import FaultPlan

    million = WorkloadSpec(
        requests=1_000_000, log_sizes=(7, 8, 9),
        field_names=(GOLDILOCKS.name,),
        directions=("forward", "inverse"),
        mean_interarrival_s=2e-5, seed=0xF25,
        tenants=("prover-a", "prover-b", "batch"),
        tenant_weights=(6.0, 3.0, 1.0),
        diurnal_period_s=5.0, diurnal_amplitude=0.6,
        burst_every=50, burst_size=8)

    headers = ["replicas", "scenario", "completed", "goodput req/s",
               "p99 ms", "heartbeats", "failovers", "re-homed",
               "replayed", "steals", "overhead ms", "outcome"]
    rows: list[list[object]] = []

    # Part one: walk the whole million-request stream lazily.  Request
    # payloads are seed-derived on demand, so this touches arrival
    # times and tenant draws only.
    count = 0
    horizon = 0.0
    by_tenant: dict[str, int] = {}
    for request in iter_workload(million):
        count += 1
        horizon = request.arrival_s
        by_tenant[request.tenant_id] = \
            by_tenant.get(request.tenant_id, 0) + 1
    mix = "/".join(f"{by_tenant[t]}" for t in sorted(by_tenant))
    rows.append(["-", f"generator stream ({count} requests, "
                      f"{horizon:.1f}s horizon, tenants {mix})",
                 "-", "-", "-", "-", "-", "-", "-", "-", "-",
                 "streamed, not served"])

    workload = generate_workload(replace(million,
                                         requests=served_requests))

    def outcome_of(results, fleet) -> str:
        exact = all(
            list(out) == (intt if r.request.direction == "inverse"
                          else ntt)(r.request.field, list(lane))
            for r in results
            for lane, out in zip(r.request.vectors(), r.outputs))
        findings = check_trace(fleet.trace)
        label = "bit-exact" if exact else "MISMATCH"
        label += ", clean trace" if not findings \
            else f", {len(findings)} finding(s)"
        return label

    for replicas in (1, 2, 4, 8):
        policy = FleetPolicy(replicas=replicas,
                             spread=min(2, replicas),
                             tenant_weights=(("prover-a", 6.0),
                                             ("prover-b", 3.0),
                                             ("batch", 1.0)))
        scenarios: list[tuple[str, FaultPlan | None]] = [("clean", None)]
        if replicas > 1:
            # Kill one loaded replica two heartbeat ticks in: the
            # detector must suspect, fence, and replay its journal
            # onto the survivors mid-run.
            scenarios.append(
                ("one kill",
                 FaultPlan.from_specs(["replica-crash@2:replica=1"],
                                      seed=0xF25)))
        for label, plan in scenarios:
            fleet = FleetServer(machine, policy=policy, faults=plan)
            report = fleet.serve(workload)
            summary = report.summary()
            rows.append([
                replicas, label, report.completed,
                report.goodput_rps(),
                report.latency_percentiles_s()["p99"] * 1e3,
                summary["heartbeats"], summary["failovers"],
                summary["failover_requests"],
                summary["replayed_records"], summary["steals"],
                report.overhead_s * 1e3,
                outcome_of(report.results, fleet),
            ])
        if replicas == 1:
            rows.append([1, "one kill", 0, 0.0, 0.0, 0, 0, 0, 0, 0,
                         0.0, "single point of failure"])
    return headers, rows


def packed_prover_pipeline(log_sizes: Sequence[int] = (8, 10, 12, 14),
                           repeats: int = 3) -> Table:
    """F26: measured Groth16 QAP pipeline, packed vs unpacked.

    Wall-clock-times the prover's seven-transform quotient pipeline
    (:meth:`repro.zkp.qap.QAP.witness_polynomials` over a repeated-
    squaring circuit on BN254-Fr) in two regimes under the multi-limb
    backend:

    * **unpacked** — packed execution disabled
      (:func:`repro.field.packed.packed_disabled`): the rows come from
      the list evaluator and every transform is a list-in/list-out
      call, paying the limb pack/unpack conversion seven times per
      proof;
    * **packed** — the pipeline's own resident path: one witness pack
      at entry (the compiled R1CS evaluates the rows on limb planes),
      four unpacks at the ``Polynomial`` boundary, all seven
      transforms and the fused ``(A*B - C) * Z^-1`` pointwise leg on
      limb planes in between.

    Both regimes run the identical algebra and are checked bit-equal
    on every repeat.  The "hot unpacks" column comes from the
    :data:`repro.field.packed.pack_stats` counter and the runner
    *fails* if any packed run unpacked on a hot leg — "zero
    intermediate conversions" is an asserted property of the
    measurement, not a code-reading claim.  Timings are interleaved
    (unpacked then packed per repeat) and best-of-``repeats``, as in
    F23.  Without numpy the packed columns read ``n/a``.
    """
    from repro.field import available_backends, use_backend
    from repro.field.packed import pack_stats, packed_disabled
    from repro.field.presets import BN254_FR
    from repro.zkp.circuits import square_chain
    from repro.zkp.qap import QAP

    field = BN254_FR
    have_numpy = available_backends()["multilimb"]
    headers = ["log2(n)", "field", "unpacked ms", "packed ms", "speedup",
               "packs", "unpacks", "hot unpacks", "fused legs"]
    rows: list[list[object]] = []

    for log_n in log_sizes:
        n = 1 << log_n
        r1cs, witness = square_chain(field, n - 1)
        qap = QAP(r1cs)
        assert qap.domain.size == n, (qap.domain.size, n)

        if not have_numpy:
            t_list, _ = best_of(lambda: qap.witness_polynomials(witness),
                                repeats)
            rows.append([log_n, field.name, t_list * 1e3, "n/a", "1.0x",
                         0, 0, 0, 0])
            continue

        with use_backend("multilimb"):
            def run_unpacked():
                with packed_disabled():
                    return qap.witness_polynomials(witness)

            def run_packed():
                return qap.witness_polynomials(witness)

            # Warm both paths (twiddle caches, packed stage tables,
            # kernel scratch), then interleave the measured repeats.
            reference = run_unpacked()
            pack_stats.reset()
            packed_result = run_packed()
            snap = pack_stats.snapshot()
            if packed_result.all() != reference.all():
                raise RuntimeError(
                    f"packed pipeline diverged at n={n}")
            if snap["hot_unpacks"]:
                raise RuntimeError(
                    f"packed pipeline unpacked on a hot leg at n={n}: "
                    f"{snap}")
            t_list = t_packed = float("inf")
            for _ in range(repeats):
                t_u, _ = best_of(run_unpacked, 1)
                t_p, got = best_of(run_packed, 1)
                t_list = min(t_list, t_u)
                t_packed = min(t_packed, t_p)
                if got.all() != reference.all():
                    raise RuntimeError(
                        f"packed pipeline diverged at n={n}")
        rows.append([
            log_n, field.name, t_list * 1e3, t_packed * 1e3,
            f"{t_list / t_packed:.1f}x", snap["packs"], snap["unpacks"],
            snap["hot_unpacks"], snap["fused"],
        ])
    return headers, rows
