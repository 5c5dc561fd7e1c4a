"""The benchmark's four workloads.

Every workload is built from a seed alone and hands the program only
the generated inputs.  A workload answers six questions:

* ``make_inputs(seed)`` -- the seeded inputs (untimed);
* ``reference(inputs)`` -- per-unit digests of the correct outputs,
  computed on an independent path (the pure-Python backend, a
  single-device transform) in a process of its own;
* ``setup(inputs)`` -- object construction; ``setup_s`` times it
  together with the first, cold ``op``;
* ``op(state)`` -- one timed operation;
* ``check(state, result)`` -- the output digest of every unit the op
  completed (keyed by unit index), the number of units that failed
  (refused or shed), per-op counts, and any gate violation (trace
  audit, executed-vs-modeled bytes);
* ``modeled(state, result)`` -- modeled metrics of one op.

Sizes: ``groth16-quotient`` and the two cluster workloads transform
``n = 2^13``, every cluster has 8 simulated GPUs, and ``serve-fleet``
serves a mix of 2^8, 2^10 and 2^12-point transforms.  Modeled numbers
are ``PlanCost`` / cost-model seconds on DGX-A100 and are reported
apart from measured wall time.
"""

from __future__ import annotations

import hashlib
import random

N = 1 << 13
GPUS = 8


def digest(value) -> str:
    """SHA-256 of the ``repr`` of a structure of plain ints."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _trace_gates(cluster, per_gpu_bytes: int) -> tuple[dict, list[str]]:
    """Audit one op's cluster trace, compare bytes, then clear it.

    Executed multi-GPU bytes (summed over the devices) must equal G times
    the modeled per-device exchange bytes of the same op.
    """
    from repro.analysis.tracecheck import check_trace

    trace = cluster.trace
    by_level = trace.bytes_by_level()
    counts = {"sim.bytes.gpu": by_level.get("gpu", 0),
              "sim.bytes.multi-gpu": by_level.get("multi-gpu", 0),
              "sim.collectives": trace.collective_count()}
    problems = [f"trace: {finding}" for finding in check_trace(trace)]
    executed = counts["sim.bytes.multi-gpu"]
    if executed != cluster.gpu_count * per_gpu_bytes:
        problems.append(
            f"executed multi-gpu bytes {executed} != {cluster.gpu_count} x "
            f"modeled {per_gpu_bytes}")
    cluster.reset_counters()
    return counts, problems


def _modeled(field, steps) -> dict:
    """Cost-model seconds of one op's phase profile on DGX-A100."""
    from repro.hw.cost import CostModel
    from repro.hw.machines import DGX_A100
    from repro.hw.plancost import PlanCost

    breakdown = CostModel(DGX_A100, field).estimate(steps)
    cost = PlanCost(
        total_s=breakdown.total_s,
        compute_s=breakdown.total_s - breakdown.exchange_s,
        exchange_s_by_level={"multi-gpu": breakdown.exchange_s},
        exchange_bytes_by_level=dict(breakdown.exchange_bytes_by_level))
    problems = cost.validate()
    if problems:
        raise RuntimeError(f"modeled cost is invalid: {problems}")
    return {"modeled_op_s": cost.total_s,
            "modeled.compute_s": breakdown.compute_s,
            "modeled.memory_s": breakdown.memory_s,
            "modeled.exchange_s": breakdown.exchange_s,
            "per_gpu_exchange_bytes":
                cost.exchange_bytes_by_level.get("multi-gpu", 0)}


class Groth16Quotient:
    """``QAP.witness_polynomials`` on one device, BN254-Fr, packed path.

    A ``random_circuit(fan_in=3)`` with ``n - 1`` constraints.  Witness
    rows and the packed field/NTT kernels do all the work; the
    multigpu, sim and serve layers do none.
    """

    name = "groth16-quotient"
    backend = "multilimb"

    def make_inputs(self, seed: int):
        from repro.field.presets import BN254_FR
        from repro.zkp.circuits import random_circuit

        return random_circuit(BN254_FR, N - 1, seed=seed, fan_in=3)

    def reference(self, inputs) -> list[str]:
        from repro.field import use_backend
        from repro.zkp.qap import QAP

        r1cs, witness = inputs
        with use_backend("python"):
            polys = QAP(r1cs).witness_polynomials(witness)
        return [digest(tuple(p.coeffs for p in polys.all()))]

    def setup(self, inputs):
        from repro.zkp.qap import QAP

        r1cs, witness = inputs
        return QAP(r1cs), witness

    def op(self, state):
        qap, witness = state
        return qap.witness_polynomials(witness)

    def check(self, state, result):
        return {0: digest(tuple(p.coeffs for p in result.all()))}, 0, {}, []

    def modeled(self, state, result) -> dict:
        return {}


class ClusterList:
    """A cyclic convolution through ``UniNTTEngine`` on list shards.

    Goldilocks on the numpy backend.  Real shards move through
    ``all_to_all``, so the relayout walk, the collectives and the small
    cross transforms do most of the work and the field layer little.
    """

    name = "cluster-list"
    backend = "numpy"

    def make_inputs(self, seed: int):
        from repro.field.presets import GOLDILOCKS

        rng = random.Random(repr(("cluster-list", seed)))
        return (GOLDILOCKS.random_vector(N, rng),
                GOLDILOCKS.random_vector(N, rng))

    def reference(self, inputs) -> list[str]:
        from repro.field import use_backend
        from repro.field.presets import GOLDILOCKS
        from repro.ntt import intt, ntt

        a, b = inputs
        p = GOLDILOCKS.modulus
        with use_backend("python"):
            spectrum = [x * y % p for x, y in zip(ntt(GOLDILOCKS, a),
                                                  ntt(GOLDILOCKS, b))]
            return [digest(tuple(intt(GOLDILOCKS, spectrum)))]

    def setup(self, inputs):
        from repro.field.presets import GOLDILOCKS
        from repro.multigpu.unintt import UniNTTEngine
        from repro.sim.cluster import SimCluster

        cluster = SimCluster(GOLDILOCKS, GPUS)
        return UniNTTEngine(cluster), inputs

    def op(self, state):
        """Cyclic convolution: 2x forward, pointwise, inverse."""
        from repro.field import vector
        from repro.multigpu.base import DistributedVector

        engine, (a, b) = state
        cluster = engine.cluster
        layout = engine.input_layout(N)
        engine.forward(DistributedVector.from_values(cluster, a, layout))
        spectrum_a = cluster.peek_shards()
        engine.forward(DistributedVector.from_values(cluster, b, layout))
        cluster.load_shards([
            vector.vec_mul(cluster.field, x, y)
            for x, y in zip(spectrum_a, cluster.peek_shards())])
        out = engine.inverse(DistributedVector(
            cluster=cluster, layout=engine.output_layout(N)))
        return tuple(out.to_values())

    def modeled(self, state, result=None) -> dict:
        engine, _ = state
        return _modeled(engine.field, 2 * engine.forward_profile(N)
                        + engine.inverse_profile(N))

    def check(self, state, result):
        engine, _ = state
        counts, problems = _trace_gates(
            engine.cluster, self.modeled(state)["per_gpu_exchange_bytes"])
        return {0: digest(result)}, 0, counts, problems


class ClusterPacked:
    """The Groth16 quotient on the cluster from packed BN254-Fr rows.

    It uses the same multigpu layer as ``cluster-list`` differently: the
    packed currency runs each transform resident and *charges* the
    exchanges instead of moving shards.
    """

    name = "cluster-packed"
    backend = "multilimb"

    def make_inputs(self, seed: int):
        from repro.field.presets import BN254_FR
        from repro.zkp.circuits import random_circuit
        from repro.zkp.qap import QAP

        r1cs, witness = random_circuit(BN254_FR, N - 1, seed=seed, fan_in=3)
        return r1cs, witness, QAP(r1cs).witness_rows(witness)

    def reference(self, inputs) -> list[str]:
        from repro.field import use_backend
        from repro.zkp.qap import QAP

        r1cs, witness, _ = inputs
        with use_backend("python"):
            h = QAP(r1cs).witness_polynomials(witness).h.coeffs
        return [digest(tuple(h) + (0,) * (N - len(h)))]

    def setup(self, inputs):
        from repro.field.packed import pack_values, packed_ops
        from repro.field.presets import BN254_FR
        from repro.multigpu.polynomial import DistributedPolynomial
        from repro.multigpu.unintt import UniNTTEngine
        from repro.sim.cluster import SimCluster
        from repro.zkp.domain import EvaluationDomain

        _, _, rows = inputs
        field = BN254_FR
        ops = packed_ops(field, N)
        if ops is None:
            raise RuntimeError("the multilimb backend has no lane ops here")
        engine = UniNTTEngine(SimCluster(field, GPUS))
        domain = EvaluationDomain(field, N)
        shift = domain.default_coset_shift()
        z_inv = field.inv(domain.vanishing_on_coset(shift))
        z_inv_evals = DistributedPolynomial.from_evaluations(
            engine, pack_values(ops, [z_inv] * N), coset_shift=shift)
        packed_rows = [pack_values(ops, row) for row in rows]
        return engine, packed_rows, shift, z_inv_evals

    def op(self, state):
        """H = (A*B - C) / Z on the coset, from packed evaluation rows."""
        from repro.multigpu.polynomial import DistributedPolynomial

        engine, packed_rows, shift, z_inv_evals = state
        a, b, c = (DistributedPolynomial.from_evaluations(engine, row)
                   .to_coefficients().to_evaluations(coset_shift=shift)
                   for row in packed_rows)
        return tuple(((a * b - c) * z_inv_evals).to_coefficients().values())

    def modeled(self, state, result=None) -> dict:
        engine = state[0]
        return _modeled(engine.field, 3 * engine.forward_profile(N)
                        + 4 * engine.inverse_profile(N))

    def check(self, state, result):
        engine = state[0]
        counts, problems = _trace_gates(
            engine.cluster, self.modeled(state)["per_gpu_exchange_bytes"])
        return {0: digest(result)}, 0, counts, problems


#: Offered rates (requests per virtual second) of the serve-fleet rate
#: ladder behind ``modeled_max_rate_rps``; every timed op serves the
#: nominal rate.
RATES = (50_000.0, 100_000.0, 200_000.0)
NOMINAL = 100_000.0
DEADLINE_S = 5e-3
#: A timed op serves a short stream so that a run holds enough ops; a
#: ladder rung serves a stream long enough for queues to build up.
OP_REQUESTS = 64
RUNG_REQUESTS = 1024
TENANTS = (("prover-a", 6.0), ("prover-b", 3.0), ("batch", 1.0))


def serve_stream(seed: int, rate: float, requests: int):
    """Open-loop, diurnal, bursty, three-tenant request stream.

    The diurnal period is scaled to the stream, two periods per stream,
    so a short stream sees the same peaks and troughs as a long one.
    A burst of 8 rides every 50th paced arrival at any length.
    """
    from repro.serve import WorkloadSpec, generate_workload

    return generate_workload(WorkloadSpec(
        requests=requests, log_sizes=(8, 10, 12),
        field_names=("Goldilocks", "BN254-Fr"),
        directions=("forward", "inverse"),
        mean_interarrival_s=1.0 / rate, deadline_s=DEADLINE_S,
        seed=seed, tenants=tuple(t for t, _ in TENANTS),
        tenant_weights=tuple(w for _, w in TENANTS),
        diurnal_period_s=requests / rate / 2, diurnal_amplitude=0.6,
        burst_every=50, burst_size=8))


def rung_ok(stream, report) -> bool:
    """A rung is met: p99 within the deadline, nothing refused or shed,
    and no backlog left when the last request has arrived."""
    backlog_s = report.makespan_s - stream[-1].arrival_s
    return (report.latency_percentiles_s()["p99"] <= DEADLINE_S
            and report.rejected == 0 and report.shed == 0
            and report.completed == len(stream) and backlog_s <= DEADLINE_S)


class ServeFleet:
    """A 4-replica ``FleetServer`` with ABFT on the nominal stream.

    Whole-device 2^8-2^12-point transforms and their ABFT checks do
    most of the work, the serve, runtime and batched-engine layers the
    rest.  Latency is virtual time from each request's arrival; the
    generator is never late.
    """

    name = "serve-fleet"
    backend = "numpy"

    def make_inputs(self, seed: int):
        return seed, serve_stream(seed, NOMINAL, OP_REQUESTS)

    def reference(self, inputs) -> list[str]:
        from repro.field import use_backend
        from repro.ntt import intt, ntt

        _, stream = inputs
        out = []
        with use_backend("python"):
            for request in stream:
                transform = intt if request.direction == "inverse" else ntt
                out.append(digest(tuple(
                    tuple(transform(request.field, lane))
                    for lane in request.vectors())))
        return out

    def setup(self, inputs):
        return inputs

    @staticmethod
    def serve(stream):
        from repro.hw.machines import DGX_A100
        from repro.serve import FleetPolicy, FleetServer

        fleet = FleetServer(DGX_A100, abft=True, policy=FleetPolicy(
            replicas=4, spread=2, tenant_weights=TENANTS))
        return fleet, fleet.serve(stream)

    def op(self, state):
        """One fresh fleet (fleets are one-shot) serving the nominal rung."""
        return self.serve(state[1])

    def check(self, state, result):
        from repro.analysis.tracecheck import check_trace

        _, stream = state
        fleet, report = result
        index = {request.request_id: i for i, request in enumerate(stream)}
        digests = {index[r.request.request_id]: digest(r.outputs)
                   for r in report.results}
        failed = len(stream) - report.completed  # refused or shed
        counts = {
            "serve.batches": sum(r.batches for r in report.replica_reports),
            "serve.steals": report.steals,
            "serve.abft_probes": report.abft_probes,
            "serve.twiddle_hits": sum(r.twiddle_hits
                                      for r in report.replica_reports),
            "serve.plan_hits": sum(r.plan_hits
                                   for r in report.replica_reports),
            "serve.deadline_misses": report.deadline_misses,
        }
        problems = [f"trace: {finding}" for finding in check_trace(fleet.trace)]
        return digests, failed, counts, problems

    def modeled(self, state, result) -> dict:
        """Virtual-time latency at the nominal rung and the rate ladder,
        each rung a ``RUNG_REQUESTS`` stream."""
        seed, _ = state
        rungs = {rate: serve_stream(seed, rate, RUNG_REQUESTS)
                 for rate in RATES}
        reports = {rate: self.serve(stream)[1]
                   for rate, stream in rungs.items()}
        best = 0.0
        for rate in RATES:
            if not rung_ok(rungs[rate], reports[rate]):
                break
            best = rate
        nominal = reports[NOMINAL]
        latency = nominal.latency_percentiles_s()
        return {"modeled_p50_s": latency["p50"],
                "modeled_p99_s": latency["p99"],
                "modeled_goodput_rps": nominal.goodput_rps(),
                "modeled_max_rate_rps": best}


WORKLOADS = {w.name: w for w in (Groth16Quotient(), ClusterList(),
                                 ClusterPacked(), ServeFleet())}
