"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Library version, preset fields, machines, and clusters.
``experiment <id> [...]``
    Regenerate one reconstructed table/figure (or ``all``) and print it.
``demo``
    A 30-second guided tour: functional multi-GPU transform plus a real
    Groth16-style proof.
``estimate``
    Price one NTT configuration (machine x field x size x engine).
``trace``
    Run one engine functionally on the simulator and print its event
    log and per-level communication summary.
``tune``
    Autotune tile size and rank the engines for a workload.
``analyze plan|trace|lint|optimize``
    Static analysis: verify a symbolic communication schedule, race-check
    a simulator trace against it, lint ``src/repro`` for project
    invariants, or synthesize and rank verified schedule rewrites for a
    topology.  All four support ``--json`` and exit non-zero on
    findings, so they double as CI gates.
``serve``
    Run the proof-serving scheduler over a workload (synthetic via
    generator flags, or explicit via ``--workload`` JSON) and print the
    serving report: throughput, latency percentiles, batching and
    cache statistics.  ``--verify`` checks every output bit-exactly
    against the reference transform.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from repro import __version__
from repro.bench import format_table
from repro.bench import runners as bench_runners

__all__ = ["main", "build_parser"]

#: Experiment id -> (runner, title).
EXPERIMENTS: dict[str, tuple[Callable[[], tuple], str]] = {
    "t1": (bench_runners.platforms_table, "T1: hardware platforms"),
    "t2": (bench_runners.workloads_table, "T2: NTT workloads"),
    "t3": (bench_runners.batch_throughput, "T3: batched NTT throughput"),
    "f7": (bench_runners.single_gpu_comparison, "F7: single-GPU NTT"),
    "f8": (bench_runners.multi_gpu_scaling, "F8: multi-GPU scaling"),
    "f8-headline": (bench_runners.headline_speedups,
                    "F8 summary: geomean speedups"),
    "f9": (bench_runners.comm_breakdown, "F9: communication breakdown"),
    "f10": (bench_runners.ablation, "F10: optimization ablation"),
    "f11": (bench_runners.end_to_end, "F11: end-to-end proof generation"),
    "f12": (bench_runners.interconnect_sensitivity,
            "F12: interconnect sensitivity"),
    "f14": (bench_runners.multi_node_scaling, "F14: multi-node scaling"),
    "f15": (bench_runners.stark_end_to_end,
            "F15: STARK end-to-end proof generation"),
    "f16": (bench_runners.uniformity_table,
            "F16: hierarchy uniformity (functional)"),
    "f17": (bench_runners.autotune_table,
            "F17: autotuned tiles and UniNTT bottleneck"),
    "f18": (bench_runners.streaming_table,
            "F18: out-of-core (host-staged) NTT"),
    "f19": (bench_runners.backend_comparison,
            "F19: field backend comparison (measured)"),
    "f20": (bench_runners.resilience_overhead,
            "F20: resilience overhead under injected faults"),
    "f21": (bench_runners.serving_throughput,
            "F21: serving throughput vs offered load"),
    "f22": (bench_runners.durability_degradation,
            "F22: crash recovery and graceful degradation"),
    "f23": (bench_runners.bigfield_comparison,
            "F23: big-field multi-limb backend comparison (measured)"),
    "f24": (bench_runners.schedule_synthesis,
            "F24: verified schedule synthesis vs hand-written"),
    "f25": (bench_runners.fleet_scaling,
            "F25: fleet goodput vs replicas under replica kills"),
    "f26": (bench_runners.packed_prover_pipeline,
            "F26: packed vs unpacked Groth16 prover pipeline (measured)"),
    "f27": (bench_runners.sdc_defense,
            "F27: ABFT checksum overhead and SDC detection"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="UniNTT reproduction: multi-GPU NTT for ZKP "
                    "(simulated)")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    parser.add_argument("--debug", action="store_true",
                        help="full tracebacks instead of one-line errors")
    parser.add_argument("--backend", default=None,
                        choices=["auto", "python", "numpy", "multilimb"],
                        help="field compute backend (default: "
                             "$REPRO_BACKEND or auto)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="presets and library summary")

    exp = sub.add_parser("experiment",
                         help="regenerate a reconstructed table/figure")
    exp.add_argument("ids", nargs="+",
                     choices=sorted(EXPERIMENTS) + ["all"],
                     help="experiment id(s), or 'all'")

    sub.add_parser("demo", help="guided functional tour")

    est = sub.add_parser("estimate", help="price one NTT configuration")
    est.add_argument("--machine", default="DGX-A100")
    est.add_argument("--machine-file", default=None,
                     help="JSON machine description (overrides --machine)")
    est.add_argument("--field", default="BLS12-381-Fr")
    est.add_argument("--log-size", type=int, default=24)
    est.add_argument("--engine", default="unintt",
                     choices=["single", "baseline", "pairwise", "unintt"])

    tr = sub.add_parser("trace",
                        help="run one engine on the simulator, print "
                             "its event log")
    tr.add_argument("--field", default="Goldilocks")
    tr.add_argument("--gpus", type=int, default=8)
    tr.add_argument("--log-size", type=int, default=10)
    tr.add_argument("--engine", default="unintt",
                    choices=["single", "baseline", "pairwise", "unintt"])
    tr.add_argument("--fault", action="append", default=[],
                    metavar="KIND@STEP[:K=V,...]",
                    help="inject a fault, e.g. transient-comm@0 or "
                         "device-death@0:gpu=1 (repeatable)")
    tr.add_argument("--fault-plan", default=None, metavar="FILE",
                    help="JSON FaultPlan file (overrides --fault)")
    tr.add_argument("--fault-seed", type=int, default=0,
                    help="seed for --fault specs (default 0)")
    tr.add_argument("--abft", action="store_true",
                    help="Freivalds-verify every transform leg and "
                         "re-execute on a probe mismatch (implies "
                         "--resilient; catches silent compute faults "
                         "like compute-bitflip@STEP:gpu=G)")
    tr.add_argument("--resilient", action="store_true",
                    help="wrap the engine in ResilientNTTEngine "
                         "(retry/checksum/reshard recovery)")

    tune = sub.add_parser("tune", help="autotune tile + rank engines")
    tune.add_argument("--machine", default="DGX-A100")
    tune.add_argument("--field", default="BLS12-381-Fr")
    tune.add_argument("--log-size", type=int, default=24)

    analyze = sub.add_parser(
        "analyze",
        help="static analysis (plan / trace / lint / optimize)")
    asub = analyze.add_subparsers(dest="analyze_command", required=True)

    ap = asub.add_parser("plan",
                         help="symbolically verify a multi-GPU schedule")
    ap.add_argument("--engine", default="unintt",
                    choices=["unintt", "pairwise", "baseline"])
    ap.add_argument("--field", default="Goldilocks")
    ap.add_argument("--gpus", type=int, default=8)
    ap.add_argument("--log-size", type=int, default=12)
    ap.add_argument("--machine", default="DGX-A100",
                    help="machine model for level/cost checks")
    ap.add_argument("--ablation", action="store_true",
                    help="verify every ablation_grid() configuration")
    from repro.analysis.plancheck import SEED_BUGS

    ap.add_argument("--seed-bug", action="append", default=[],
                    choices=sorted(SEED_BUGS),
                    help="inject a deliberate bug first (repeatable)")
    ap.add_argument("--json", action="store_true")

    at = asub.add_parser("trace",
                         help="run an engine, race-check its trace "
                              "against the static schedule")
    at.add_argument("--engine", default="unintt",
                    choices=["unintt", "pairwise", "baseline"])
    at.add_argument("--field", default="Goldilocks")
    at.add_argument("--gpus", type=int, default=8)
    at.add_argument("--log-size", type=int, default=10)
    at.add_argument("--json", action="store_true")

    al = asub.add_parser("lint",
                         help="AST lint of src/repro project invariants")
    al.add_argument("paths", nargs="*",
                    help="files/directories (default: the installed "
                         "repro package)")
    al.add_argument("--json", action="store_true")

    ao = asub.add_parser(
        "optimize",
        help="synthesize, gate, and rank communication-schedule "
             "rewrites for a topology")
    ao.add_argument("--machine", default="4xDGX-A100",
                    help="machine or cluster preset (clusters unlock "
                         "hierarchical synthesis)")
    ao.add_argument("--field", default="BLS12-381-Fr")
    ao.add_argument("--log-size", type=int, default=24)
    ao.add_argument("--json", action="store_true")

    sv = sub.add_parser("serve",
                        help="run the proof-serving scheduler over a "
                             "workload")
    sv.add_argument("--machine", default="DGX-A100")
    sv.add_argument("--workload", default=None, metavar="FILE",
                    help="JSON workload file (overrides generator flags)")
    sv.add_argument("--requests", type=int, default=8,
                    help="synthetic workload size (default 8)")
    sv.add_argument("--log-size", type=int, action="append", default=[],
                    metavar="K", help="transform size 2^K (repeatable; "
                                      "default 10)")
    sv.add_argument("--field", action="append", default=[],
                    help="field preset (repeatable; default Goldilocks)")
    sv.add_argument("--direction", action="append", default=[],
                    choices=["forward", "inverse"],
                    help="transform direction (repeatable; default "
                         "forward)")
    sv.add_argument("--batch", type=int, default=1,
                    help="vectors per request (default 1)")
    sv.add_argument("--mean-interarrival", type=float, default=0.0,
                    metavar="S", help="mean inter-arrival gap in virtual "
                                      "seconds (0 = burst, the default)")
    sv.add_argument("--deadline", type=float, default=None, metavar="S",
                    help="per-request relative deadline in virtual "
                         "seconds")
    sv.add_argument("--priority-levels", type=int, default=1)
    sv.add_argument("--seed", type=int, default=0,
                    help="workload seed (default 0)")
    sv.add_argument("--queue-capacity", type=int, default=64)
    sv.add_argument("--max-batch", type=int, default=16,
                    help="most requests one dispatch may coalesce")
    sv.add_argument("--no-batching", action="store_true",
                    help="serve one request per dispatch (baseline)")
    sv.add_argument("--no-caching", action="store_true",
                    help="rebuild plans/twiddles per dispatch (baseline)")
    sv.add_argument("--strategy", default=None,
                    choices=["replicate", "split"],
                    help="pin the batch strategy instead of planning")
    sv.add_argument("--twiddle-capacity", type=int, default=None,
                    help="LRU bound on resident twiddle tables")
    sv.add_argument("--replicas", type=int, default=1,
                    help="serve through a replicated fleet of N "
                         "journaled servers (default 1: the single "
                         "ProofServer path)")
    sv.add_argument("--heartbeat-interval", type=float, default=None,
                    metavar="S", help="fleet heartbeat tick in virtual "
                                      "seconds (default 5e-4)")
    sv.add_argument("--tenant-weight", action="append", default=[],
                    metavar="TENANT=W",
                    help="per-tenant WFQ weight (repeatable; "
                         "unlisted tenants weigh 1.0)")
    sv.add_argument("--no-steal", action="store_true",
                    help="disable cross-replica work stealing")
    sv.add_argument("--fault", action="append", default=[],
                    metavar="KIND@STEP[:K=V,...]",
                    help="inject a fault (repeatable; see 'repro "
                         "trace'; with --replicas > 1 use fleet kinds "
                         "like replica-crash@TICK:replica=R)")
    sv.add_argument("--fault-plan", default=None, metavar="FILE",
                    help="JSON FaultPlan file (overrides --fault)")
    sv.add_argument("--journal", action="store_true",
                    help="record every serving decision in a "
                         "write-ahead journal (priced)")
    sv.add_argument("--crash", type=int, action="append", default=[],
                    metavar="SEQ",
                    help="kill the server when the journal reaches "
                         "sequence SEQ (repeatable; implies --journal; "
                         "requires --recover)")
    sv.add_argument("--recover", action="store_true",
                    help="replay the journal after each --crash and "
                         "resume until the workload drains")
    sv.add_argument("--snapshot-every", type=int, default=8,
                    metavar="N",
                    help="journal records between snapshots (default 8)")
    sv.add_argument("--degrade", action="store_true",
                    help="enable graceful degradation: circuit "
                         "breakers, single-GPU fallback, load shedding")
    sv.add_argument("--abft", action="store_true",
                    help="verify-before-emit: Freivalds-check every "
                         "lane of every dispatch and re-execute on a "
                         "mismatch, so silently corrupted compute "
                         "(e.g. --fault compute-bitflip@STEP:gpu=0) "
                         "can never reach a client")
    sv.add_argument("--quarantine-after", type=int, default=None,
                    metavar="N",
                    help="quarantine an engine (or, with --replicas, a "
                         "replica) after N ABFT detections and rejoin "
                         "it only through clean probation probes "
                         "(implies --abft)")
    sv.add_argument("--verify", action="store_true",
                    help="check every output against the reference "
                         "transform")
    sv.add_argument("--json", action="store_true",
                    help="emit the report as JSON")
    return parser


def _cmd_info() -> int:
    from repro.analysis import all_checks
    from repro.field import ALL_FIELDS, available_backends, get_backend
    from repro.hw import ALL_CLUSTERS, ALL_MACHINES

    print(f"repro {__version__} — UniNTT reproduction (simulated)")
    print("\nfields:")
    for field in ALL_FIELDS:
        print(f"  {field.name:16s} {field.modulus.bit_length()}-bit, "
              f"two-adicity {field.two_adicity}")
    print("\nbackends:")
    active = get_backend().name
    for name, available in available_backends().items():
        status = "available" if available else "unavailable"
        marker = "  (active)" if name == active and available else ""
        print(f"  {name:16s} {status}{marker}")
    print("\nmulti-limb schedules (fields above 64 bits):")
    from repro.field.limbgen import describe_schedule

    for field in ALL_FIELDS:
        if field.modulus >= 1 << 64 and field.modulus % 2:
            for line in describe_schedule(
                    field.modulus, field.name).splitlines():
                print(f"  {line}")
    print("\nmachines:")
    for machine in ALL_MACHINES:
        print(f"  {machine.describe()}")
    print("\nclusters:")
    for cluster in ALL_CLUSTERS:
        print(f"  {cluster.describe()}")
    print("\nanalysis checks:")
    for check in all_checks():
        print(f"  {check.check_id:26s} v{check.version}  "
              f"{check.description}")
    print(f"\nexperiments: {', '.join(sorted(EXPERIMENTS))}")
    return 0


def _cmd_experiment(ids: Sequence[str]) -> int:
    wanted = sorted(EXPERIMENTS) if "all" in ids else list(ids)
    for exp_id in wanted:
        runner, title = EXPERIMENTS[exp_id]
        headers, rows = runner()
        print(format_table(headers, rows, title=title))
        print()
    return 0


def _cmd_demo() -> int:
    import random

    from repro.field import BLS12_381_FR, BN254_FR
    from repro.multigpu import DistributedVector, UniNTTEngine
    from repro.ntt import ntt
    from repro.sim import SimCluster
    from repro.zkp import Prover, QAP, square_chain, trusted_setup

    rng = random.Random(0)
    n = 1 << 10
    cluster = SimCluster(BLS12_381_FR, 8)
    engine = UniNTTEngine(cluster)
    values = BLS12_381_FR.random_vector(n, rng)
    vec = DistributedVector.from_values(cluster, values,
                                        engine.input_layout(n))
    out = engine.forward(vec)
    ok = out.to_values() == ntt(BLS12_381_FR, values)
    print(f"[1] 2^10 NTT on 8 simulated GPUs: "
          f"{'bit-exact' if ok else 'MISMATCH'}; "
          f"{cluster.trace.collective_count()} collective(s)")

    r1cs, witness = square_chain(BN254_FR, steps=16)
    qap = QAP(r1cs)
    tau = 0xDEC0DE
    prover = Prover(qap, trusted_setup(qap.domain.size, tau))
    proof, polys = prover.prove(witness)
    verified = prover.check(proof, polys, tau)
    print(f"[2] Groth16-style proof ({len(r1cs.constraints)} constraints):"
          f" {'verified' if verified else 'FAILED'}")
    return 0 if ok and verified else 1


def _cmd_estimate(machine_name: str, field_name: str, log_size: int,
                  engine_name: str,
                  machine_file: str | None = None) -> int:
    from repro.field import field_by_name
    from repro.hw import load_machine_file, machine_by_name
    from repro.sim import SimCluster

    if machine_file is not None:
        machine = load_machine_file(machine_file)
    else:
        machine = machine_by_name(machine_name)
    field = field_by_name(field_name)
    engine = _engine_class(engine_name)(SimCluster(field,
                                                   machine.gpu_count))
    breakdown = engine.estimate(machine, 1 << log_size)
    print(f"{engine.name} on {machine.name}, {field.name}, n=2^{log_size}:")
    print(f"  total    {breakdown.total_s * 1e3:10.3f} ms "
          f"(bottleneck: {breakdown.dominant_resource()})")
    width = max([22, *map(len, breakdown.per_phase)])
    for phase, seconds in breakdown.per_phase.items():
        print(f"  {phase:{width}s} {seconds * 1e3:10.3f} ms")
    return 0


def _engine_class(name: str):
    from repro.multigpu import (
        BaselineFourStepEngine, PairwiseExchangeEngine, SingleGpuEngine,
        UniNTTEngine,
    )

    return {
        "single": SingleGpuEngine,
        "baseline": BaselineFourStepEngine,
        "pairwise": PairwiseExchangeEngine,
        "unintt": UniNTTEngine,
    }[name]


def _cmd_trace(field_name: str, gpus: int, log_size: int,
               engine_name: str, fault_specs: Sequence[str] = (),
               fault_plan_file: str | None = None, fault_seed: int = 0,
               resilient: bool = False, abft: bool = False) -> int:
    import random

    from repro.field import field_by_name
    from repro.multigpu import DistributedVector, ResilientNTTEngine
    from repro.ntt import ntt
    from repro.sim import (
        FaultInjector, FaultPlan, SimCluster, render_trace,
    )

    field = field_by_name(field_name)
    n = 1 << log_size
    plan = None
    if fault_plan_file is not None:
        with open(fault_plan_file, encoding="utf-8") as handle:
            plan = FaultPlan.from_json(handle.read())
    elif fault_specs:
        plan = FaultPlan.from_specs(list(fault_specs), seed=fault_seed)
    injector = FaultInjector(plan, field.modulus) if plan is not None \
        else None
    cluster = SimCluster(field, gpus, injector=injector)
    resilient = resilient or abft  # leg verification needs the wrapper
    if resilient:
        engine = ResilientNTTEngine(cluster, _engine_class(engine_name),
                                    abft=abft)
    else:
        engine = _engine_class(engine_name)(cluster)
    values = field.random_vector(n, random.Random(0))
    vec = DistributedVector.from_values(cluster, values,
                                        engine.input_layout(n))
    out = engine.forward(vec)
    correct = out.to_values() == ntt(field, values)
    title = (f"{engine.name}: 2^{log_size} {field.name} forward on "
             f"{gpus} simulated GPUs "
             f"({'bit-exact' if correct else 'MISMATCH'})")
    print(render_trace(cluster.trace, title=title))
    if resilient:
        counts = engine.report.summary()
        print("resilience: " + ", ".join(
            f"{key}={counts[key]}" for key in sorted(counts)))
    if abft:
        counts = engine.abft_checker.summary()
        print("abft: " + ", ".join(
            f"{key}={counts[key]}" for key in sorted(counts)))
    return 0 if correct else 1


def _machine_or_cluster(name: str):
    """Resolve a preset machine or multi-node cluster by name."""
    from repro.hw import (
        ALL_CLUSTERS, ALL_MACHINES, cluster_by_name, machine_by_name,
    )

    try:
        return cluster_by_name(name)
    except KeyError:
        try:
            return machine_by_name(name)
        except KeyError:
            known = [m.name for m in ALL_MACHINES] \
                + [c.name for c in ALL_CLUSTERS]
            raise KeyError(f"no preset machine or cluster named "
                           f"{name!r}; known: {known}") from None


def _cmd_tune(machine_name: str, field_name: str, log_size: int) -> int:
    from repro.field import field_by_name
    from repro.multigpu import autotune_tile, select_engine

    machine = _machine_or_cluster(machine_name)
    field = field_by_name(field_name)
    n = 1 << log_size
    # Tile autotuning works on the flat all-GPUs view; the engine
    # ranking sees the cluster itself so schedule candidates compete.
    flat = machine.flattened() if hasattr(machine, "node_count") \
        else machine
    tile, seconds = autotune_tile(flat, field, n)
    print(f"workload: 2^{log_size} {field.name} on {machine.name}")
    print(f"best tile: {tile} elements "
          f"(UniNTT estimate {seconds * 1e3:.3f} ms)\n")
    print("engine ranking:")
    for choice in select_engine(machine, field, n):
        print(f"  {choice.name:38s} {choice.seconds * 1e3:10.3f} ms  "
              f"({choice.bottleneck}-bound)")
    return 0


def _cmd_analyze_plan(engine: str, field_name: str, gpus: int,
                      log_size: int, machine_name: str, ablation: bool,
                      seed_bugs: Sequence[str], as_json: bool) -> int:
    from repro.analysis import analyze_plan, findings_to_json, \
        render_findings
    from repro.field import field_by_name
    from repro.hw import machine_by_name
    from repro.multigpu import ablation_grid
    from repro.multigpu.schedule import ALL_ON

    field = field_by_name(field_name)
    machine = machine_by_name(machine_name).with_gpu_count(gpus)
    n = 1 << log_size
    configs = ablation_grid() if ablation and engine == "unintt" \
        else [("default", ALL_ON)]
    findings = []
    for label, options in configs:
        schedule, found = analyze_plan(
            n, gpus, field, engine=engine, options=options,
            machine=machine, seed_bugs=tuple(seed_bugs))
        findings.extend(found)
        if not as_json:
            verdict = f"{len(found)} finding(s)" if found else "ok"
            print(f"# {schedule.name} [{label}] n=2^{log_size} "
                  f"G={gpus}: {verdict}")
    if as_json:
        print(findings_to_json(findings, tool="plan"))
    else:
        print(render_findings(findings, tool="plan"))
    return 1 if findings else 0


def _cmd_analyze_trace(engine: str, field_name: str, gpus: int,
                       log_size: int, as_json: bool) -> int:
    import random

    from repro.analysis import check_trace, findings_to_json, \
        render_findings
    from repro.field import field_by_name
    from repro.multigpu import DistributedVector
    from repro.sim import SimCluster

    field = field_by_name(field_name)
    n = 1 << log_size
    cluster = SimCluster(field, gpus)
    eng = _engine_class(engine)(cluster)
    values = field.random_vector(n, random.Random(0))
    vec = DistributedVector.from_values(cluster, values,
                                        eng.input_layout(n))
    eng.forward(vec)
    findings = check_trace(cluster.trace, schedule=eng.program(n))
    if as_json:
        print(findings_to_json(findings, tool="trace"))
    else:
        print(f"# {eng.name}: {len(cluster.trace)} events, "
              f"{cluster.trace.collective_count()} collectives")
        print(render_findings(findings, tool="trace"))
    return 1 if findings else 0


def _cmd_analyze_optimize(machine_name: str, field_name: str,
                          log_size: int, as_json: bool) -> int:
    from repro.analysis import check_cost, findings_to_json, \
        render_findings, verify_rewrite
    from repro.analysis.synth import enumerate_candidates
    from repro.field import field_by_name
    from repro.multigpu import select_schedule

    machine = _machine_or_cluster(machine_name)
    field = field_by_name(field_name)
    n = 1 << log_size
    total = machine.total_gpus if hasattr(machine, "node_count") \
        else machine.gpu_count

    # Re-run the gate independently of enumerate_candidates' internal
    # one: the CLI reports findings, it does not trust the builder.
    findings = []
    candidates = enumerate_candidates(machine, field, n)
    for cand in candidates:
        findings.extend(verify_rewrite(
            cand.base, cand.schedule, machine=cand.machine, field=field,
            delta=cand.delta))
        findings.extend(check_cost(cand.machine, field, n,
                                   schedule=cand.schedule,
                                   delta=cand.delta))
    choices = select_schedule(machine, field, n)
    if as_json:
        print(findings_to_json(findings, tool="optimize"))
        return 1 if findings else 0
    print(f"# schedule candidates for 2^{log_size} {field.name} on "
          f"{machine.name} ({total} GPUs), fastest first")
    for rank, choice in enumerate(choices, start=1):
        origin = "synthesized" if choice.synthesized else "hand-written"
        marker = "  <- selected" if rank == 1 else ""
        print(f"  {rank}. {choice.name:44s} "
              f"{choice.cost.total_s * 1e3:9.3f} ms sequential, "
              f"{choice.seconds * 1e3:9.3f} ms modeled  "
              f"[{origin}]{marker}")
    print(render_findings(findings, tool="optimize"))
    return 1 if findings else 0


def _cmd_analyze_lint(paths: Sequence[str], as_json: bool) -> int:
    from repro.analysis.lint import main as lint_main

    argv = list(paths)
    if as_json:
        argv.append("--json")
    return lint_main(argv)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.errors import ServeError
    from repro.field import field_by_name
    from repro.hw import machine_by_name
    from repro.serve import (
        DegradePolicy, ProofServer, WorkloadSpec, WriteAheadJournal,
        generate_workload, serve_durably, workload_from_json,
    )
    from repro.sim import FaultInjector, FaultPlan

    machine = machine_by_name(args.machine)
    if args.workload is not None:
        with open(args.workload, encoding="utf-8") as handle:
            requests = workload_from_json(handle.read())
    else:
        spec = WorkloadSpec(
            requests=args.requests,
            log_sizes=tuple(args.log_size) or (10,),
            field_names=tuple(args.field) or ("Goldilocks",),
            directions=tuple(args.direction) or ("forward",),
            batch=args.batch,
            mean_interarrival_s=args.mean_interarrival,
            deadline_s=args.deadline,
            priority_levels=args.priority_levels,
            seed=args.seed)
        requests = generate_workload(spec)
    plan = None
    if args.fault_plan is not None:
        with open(args.fault_plan, encoding="utf-8") as handle:
            plan = FaultPlan.from_json(handle.read())
    elif args.fault:
        plan = FaultPlan.from_specs(list(args.fault))
    if args.replicas > 1:
        return _cmd_serve_fleet(args, machine, requests, plan)
    if plan is not None and plan.fleet_faults():
        raise ServeError(
            "fleet faults (replica-crash/network-partition/"
            "heartbeat-loss) need a fleet: pass --replicas >= 2")
    modulus = None
    if plan is not None:
        moduli = {field_by_name(r.field_name).modulus for r in requests}
        if len(moduli) != 1:
            raise ServeError(
                f"fault injection needs a single-field workload, got "
                f"{sorted(set(r.field_name for r in requests))}")
        modulus = moduli.pop()

    crash_plan = None
    if args.crash:
        if not args.recover:
            raise ServeError(
                "--crash without --recover would just lose the run; "
                "pass --recover to replay the journal after each crash")
        crash_plan = FaultPlan.from_specs(
            [f"server-crash@{s}" for s in args.crash], seed=args.seed)
    journal = WriteAheadJournal() if (args.crash or args.journal) \
        else None
    degrade = DegradePolicy() if args.degrade else None

    def build_server() -> ProofServer:
        # Each recovery leg gets a fresh injector (the process died;
        # its collective counter died with it) but shares the journal.
        return ProofServer(
            machine,
            queue_capacity=args.queue_capacity,
            max_batch_requests=args.max_batch,
            batching=not args.no_batching,
            caching=not args.no_caching,
            strategy=args.strategy,
            twiddle_capacity=args.twiddle_capacity,
            injector=FaultInjector(plan, modulus)
            if plan is not None else None,
            journal=journal,
            snapshot_every=args.snapshot_every,
            crash_plan=crash_plan,
            degrade=degrade,
            abft=args.abft,
            quarantine_after=args.quarantine_after)

    if crash_plan is not None:
        outcome = serve_durably(requests, build_server)
        report = outcome.report
        results = outcome.results
        recoveries = outcome.recoveries
        legs = outcome.legs
    else:
        server = build_server()
        report = server.serve(requests)
        results = report.results
        recoveries = 0
        legs = [report]

    verified = _verify_results(results) if args.verify else None
    if args.json:
        import json as json_module
        payload = json_module.loads(report.to_json())
        payload["recoveries"] = recoveries
        payload["merged_completed"] = len(results)
        if verified is not None:
            payload["verified"] = verified
        print(json_module.dumps(payload, indent=2, sort_keys=True))
        return 0 if verified in (None, True) else 1

    summary = report.summary()
    served = len(results)
    rps = served / summary["makespan_s"] if summary["makespan_s"] else 0.0
    print(f"served {served}/{len(requests)} requests "
          f"on {machine.name} in {summary['makespan_s'] * 1e3:.3f} ms "
          f"({rps:.0f} req/s)")
    print(f"  batches {summary['batches']} "
          f"(mean {summary['mean_batch_requests']:.2f} req/batch, "
          f"strategies {summary['strategy_counts']}), "
          f"rejected {summary['rejected']}, "
          f"deadline misses {summary['deadline_misses']}, "
          f"retries {summary['retries']}")
    print(f"  plan cache {summary['plan_hits']} hit / "
          f"{summary['plan_misses']} miss; twiddle cache "
          f"{summary['twiddle_hits']} hit / {summary['twiddle_misses']} "
          f"miss / {summary['twiddle_evictions']} evicted")
    if journal is not None:
        replayed = sum(leg.replayed_records for leg in legs)
        recovery_ms = sum(leg.recovery_s for leg in legs) * 1e3
        print(f"  durability: journal {len(journal)} records, "
              f"{sum(leg.snapshots for leg in legs)} snapshot(s), "
              f"{recoveries} recovery(ies), {replayed} replayed, "
              f"recovery {recovery_ms:.3f} ms")
    if degrade is not None:
        print(f"  degradation: shed {summary['shed']}, breaker trips "
              f"{summary['breaker_trips']}, probes "
              f"{summary['breaker_probes']}, single-GPU fallbacks "
              f"{summary['fallback_dispatches']}")
    if args.abft or args.quarantine_after is not None:
        print(f"  sdc: {summary['abft_probes']} abft probe(s), "
              f"{summary['abft_detections']} detection(s), "
              f"{summary['abft_reexecutions']} re-execution(s), "
              f"{summary['quarantines']} quarantine(s), "
              f"{summary['quarantine_rejoins']} rejoin(s)")
    percentiles = report.latency_percentiles_s()
    print("  latency  " + "  ".join(
        f"{name} {percentiles[name] * 1e3:.3f} ms"
        for name in ("p50", "p90", "p99", "max")))
    if verified is not None:
        print(f"  outputs: {'bit-exact' if verified else 'MISMATCH'}")
    return 0 if verified in (None, True) else 1


def _verify_results(results) -> bool:
    from repro.ntt import intt, ntt

    for result in results:
        request = result.request
        field = request.field
        reference = intt if request.direction == "inverse" else ntt
        for lane, out in zip(request.vectors(), result.outputs):
            if list(out) != reference(field, list(lane)):
                return False
    return True


def _cmd_serve_fleet(args: argparse.Namespace, machine, requests,
                     plan) -> int:
    from repro.errors import ServeError
    from repro.serve import FleetPolicy, FleetServer

    for flag, name in ((args.crash, "--crash"),
                       (args.recover, "--recover"),
                       (args.degrade, "--degrade")):
        if flag:
            raise ServeError(
                f"{name} is the single-server durability/degradation "
                "path; a fleet already journals every replica and "
                "recovers through failover — drop the flag or drop "
                "--replicas")
    weights = []
    for spec in args.tenant_weight:
        tenant, sep, value = spec.partition("=")
        if not sep or not tenant:
            raise ServeError(
                f"--tenant-weight wants TENANT=WEIGHT, got {spec!r}")
        try:
            weights.append((tenant, float(value)))
        except ValueError:
            raise ServeError(
                f"--tenant-weight {spec!r}: weight is not a number"
            ) from None
    policy_kwargs = dict(replicas=args.replicas,
                         steal_enabled=not args.no_steal,
                         tenant_weights=tuple(weights))
    if args.heartbeat_interval is not None:
        policy_kwargs["heartbeat_interval_s"] = args.heartbeat_interval
    if args.quarantine_after is not None:
        policy_kwargs["quarantine_after"] = args.quarantine_after
    fleet = FleetServer(
        machine,
        policy=FleetPolicy(**policy_kwargs),
        faults=plan,
        abft=args.abft,
        queue_capacity=args.queue_capacity,
        max_batch_requests=args.max_batch,
        batching=not args.no_batching,
        caching=not args.no_caching,
        strategy=args.strategy,
        twiddle_capacity=args.twiddle_capacity,
        snapshot_every=args.snapshot_every)
    report = fleet.serve(requests)
    verified = _verify_results(report.results) if args.verify else None

    if args.json:
        import json as json_module
        payload = json_module.loads(report.to_json())
        if verified is not None:
            payload["verified"] = verified
        print(json_module.dumps(payload, indent=2, sort_keys=True))
        return 0 if verified in (None, True) else 1

    summary = report.summary()
    print(f"fleet of {args.replicas} replicas served "
          f"{report.completed}/{len(requests)} requests on "
          f"{machine.name} in {summary['makespan_s'] * 1e3:.3f} ms "
          f"({summary['goodput_rps']:.0f} req/s goodput)")
    print(f"  routing: {summary['routed']} routed, "
          f"{summary['unroutable']} unroutable; "
          f"rejected {summary['rejected']}, shed {summary['shed']}, "
          f"deadline misses {summary['deadline_misses']}")
    print(f"  detector: {summary['heartbeats']} heartbeats, "
          f"{summary['suspicions']} suspicion(s), "
          f"{summary['detector_recoveries']} recovery(ies), "
          f"{summary['failovers']} failover(s) "
          f"({summary['failover_requests']} re-homed, "
          f"{summary['replayed_records']} replayed); "
          f"{summary['deaths']} death(s), "
          f"{summary['partitions']} partition(s), "
          f"{summary['heartbeat_losses']} heartbeat loss(es), "
          f"{summary['rejoins']} rejoin(s)")
    print(f"  stealing: {summary['steals']} steal(s) moving "
          f"{summary['stolen_requests']} request(s)")
    if args.abft or args.quarantine_after is not None \
            or summary["abft_detections"]:
        print(f"  sdc: {summary['abft_probes']} abft probe(s), "
              f"{summary['abft_detections']} detection(s), "
              f"{summary['abft_reexecutions']} re-execution(s); "
              f"{summary['sdc_quarantines']} quarantine(s), "
              f"{summary['sdc_probes']} probation probe(s), "
              f"{summary['sdc_rejoins']} rejoin(s), "
              f"{summary['sdc_condemned']} condemned")
    overhead_ms = (summary["route_s"] + summary["heartbeat_s"]
                   + summary["failover_s"] + summary["steal_s"]) * 1e3
    print(f"  overhead: route {summary['route_s'] * 1e3:.3f} ms + "
          f"heartbeat {summary['heartbeat_s'] * 1e3:.3f} + "
          f"failover {summary['failover_s'] * 1e3:.3f} + "
          f"steal {summary['steal_s'] * 1e3:.3f} = {overhead_ms:.3f} ms")
    completed = [r.completed for r in report.replica_reports]
    print(f"  per-replica completed: {completed}")
    tenants = report.tenant_breakdown()
    if sorted(tenants) != ["default"]:
        for tenant in sorted(tenants):
            stats = tenants[tenant]
            print(f"  tenant {tenant}: completed {stats['completed']}, "
                  f"rejected {stats['rejected']}, shed {stats['shed']}")
    percentiles = report.latency_percentiles_s()
    print("  latency  " + "  ".join(
        f"{name} {percentiles[name] * 1e3:.3f} ms"
        for name in ("p50", "p90", "p99", "max")))
    if verified is not None:
        print(f"  outputs: {'bit-exact' if verified else 'MISMATCH'}")
    return 0 if verified in (None, True) else 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "info":
        return _cmd_info()
    if args.command == "experiment":
        return _cmd_experiment(args.ids)
    if args.command == "demo":
        return _cmd_demo()
    if args.command == "estimate":
        return _cmd_estimate(args.machine, args.field, args.log_size,
                             args.engine, args.machine_file)
    if args.command == "trace":
        return _cmd_trace(args.field, args.gpus, args.log_size,
                          args.engine, fault_specs=args.fault,
                          fault_plan_file=args.fault_plan,
                          fault_seed=args.fault_seed,
                          resilient=args.resilient, abft=args.abft)
    if args.command == "tune":
        return _cmd_tune(args.machine, args.field, args.log_size)
    if args.command == "analyze":
        if args.analyze_command == "plan":
            return _cmd_analyze_plan(
                args.engine, args.field, args.gpus, args.log_size,
                args.machine, args.ablation, args.seed_bug, args.json)
        if args.analyze_command == "trace":
            return _cmd_analyze_trace(args.engine, args.field, args.gpus,
                                      args.log_size, args.json)
        if args.analyze_command == "lint":
            return _cmd_analyze_lint(args.paths, args.json)
        if args.analyze_command == "optimize":
            return _cmd_analyze_optimize(args.machine, args.field,
                                         args.log_size, args.json)
    if args.command == "serve":
        return _cmd_serve(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Library failures (:class:`~repro.errors.ReproError` and the
    ``KeyError`` the preset lookups raise for unknown names) exit with
    code 2 and a one-line message; pass ``--debug`` for the traceback.
    """
    args = build_parser().parse_args(argv)
    from repro.errors import FieldError, ReproError
    from repro.field import get_backend, set_backend

    try:
        if args.backend is not None:
            set_backend(args.backend)
        get_backend()  # resolve $REPRO_BACKEND now: fail fast and clean
    except FieldError as error:
        if args.debug:
            raise
        print(f"repro: error: {error}", file=sys.stderr)
        return 2
    try:
        return _dispatch(args)
    except (ReproError, KeyError) as error:
        if args.debug:
            raise
        message = error.args[0] if error.args else error
        print(f"repro: error: {message}", file=sys.stderr)
        return 2
    except OSError as error:
        if args.debug:
            raise
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
