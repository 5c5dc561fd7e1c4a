"""Verified serving on the dispatch lanes: a bitflip is caught where it lands.

``BatchedDistributedNTT`` hands the fault hook every result lane of a
replicated dispatch (packed lane views on ``numpy``, the lists on
``python``) and ``ProofServer(abft=True)`` Freivalds-checks those same
lanes.  For forward and inverse Goldilocks and BN254-Fr dispatches of
1, 3 and 9 lanes, one ``compute-bitflip`` at every local step must:

* corrupt exactly one lane of exactly one engine run, and the lane the
  server flags must be the one ``verify_leg`` flags on the lists that
  run returned;
* leave one ``abft-probe`` event per checked lane per attempt, with the
  ``serve batch=B lane=L ok|mismatch`` detail, the check stopping at the
  flagged lane;
* never emit a corrupted output.

The emit digest is pinned to a hashlib computation written out here,
identical under both backends.
"""

import hashlib

import pytest

from repro.field import BN254_FR, GOLDILOCKS, numpy_available, use_backend
from repro.hw import DGX_A100
from repro.multigpu import BatchedDistributedNTT
from repro.multigpu.abft import AbftChecker
from repro.ntt import intt, ntt
from repro.serve import ProofRequest, ProofServer, WriteAheadJournal
from repro.sim import FaultInjector, FaultPlan, SimCluster

BACKENDS = ("python", "numpy") if numpy_available() else ("python",)
REQUESTS = 3
LOG_SIZE = 8


def workload(field, direction, batch):
    return [ProofRequest(request_id=i, field_name=field.name,
                         log_size=LOG_SIZE, direction=direction,
                         batch=batch, data_seed=i)
            for i in range(REQUESTS)]


def reference(requests):
    with use_backend("python"):
        return {r.request_id: tuple(
            tuple((intt if r.direction == "inverse" else ntt)(
                r.field, lane)) for lane in r.vectors())
            for r in requests}


def flagged_lanes(field, inputs, outputs, inverse):
    """The lanes ``verify_leg`` flags on plain lists."""
    checker = AbftChecker(SimCluster(field, DGX_A100.gpu_count))
    return [lane for lane, (x, y) in enumerate(zip(inputs, outputs))
            if not checker.verify_leg(inputs=x, outputs=y, n=len(x),
                                      inverse=inverse).ok]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("field", (GOLDILOCKS, BN254_FR),
                         ids=lambda f: f.name)
@pytest.mark.parametrize("direction", ("forward", "inverse"))
@pytest.mark.parametrize("batch", (1, 3, 9))
def test_bitflip_at_every_local_step(backend, field, direction, batch,
                                     monkeypatch):
    requests = workload(field, direction, batch)
    want = reference(requests)
    runs = []
    run = BatchedDistributedNTT._run

    def recording(self, vectors, inverse):
        out = run(self, vectors, inverse)
        runs.append(([list(v) for v in vectors], [list(v) for v in out]))
        return out

    monkeypatch.setattr(BatchedDistributedNTT, "_run", recording)
    inverse = direction == "inverse"
    for step in range(REQUESTS):  # one local step per clean dispatch
        gpu = step % min(batch, DGX_A100.gpu_count)
        plan = FaultPlan.from_specs(
            [f"compute-bitflip@{step}:gpu={gpu},delta=9"], seed=step)
        injector = FaultInjector(plan, field.modulus)
        runs.clear()
        with use_backend(backend):
            server = ProofServer(DGX_A100, abft=True, batching=False,
                                 strategy="replicate", injector=injector)
            report = server.serve(requests)

        # Exactly one run returned one corrupted lane, on the planned
        # GPU, and that run was retried clean.
        flags = [flagged_lanes(field, x, y, inverse) for x, y in runs]
        faulted = [i for i, lanes in enumerate(flags) if lanes]
        assert faulted == [step] and len(runs) == REQUESTS + 1
        [lane] = flags[step]
        assert lane % DGX_A100.gpu_count == gpu
        assert injector.compute_faults_fired == 1

        # One probe per checked lane per attempt; the check stops at
        # the lane verify_leg flags on the returned lists.
        expected = []
        for batch_id in range(REQUESTS):
            if batch_id == step:
                expected += [f"serve batch={batch_id} lane={i} ok"
                             for i in range(lane)]
                expected.append(f"serve batch={batch_id} lane={lane} "
                                f"mismatch")
            expected += [f"serve batch={batch_id} lane={i} ok"
                         for i in range(batch)]
        probes = [e.detail for e in server.trace
                  if e.kind == "abft-probe"]
        assert probes == expected
        assert report.abft_probes == len(expected)
        detects = [e.detail for e in server.trace if e.kind == "abft-detect"]
        assert detects == [f"serve batch={step} lane={lane} "
                           f"fault={plan.faults[0].label()}"]

        # Nothing corrupted reached a client.
        assert report.completed == REQUESTS
        for result in report.results:
            assert result.outputs == want[result.request.request_id]


def test_emit_digest_is_sha256_of_little_endian_words():
    requests = [ProofRequest(request_id=i, field_name=field.name,
                             log_size=LOG_SIZE, batch=2, data_seed=i,
                             direction=("forward", "inverse")[i % 2])
                for i, field in enumerate((GOLDILOCKS, BN254_FR) * 2)]
    want = {}
    for request, outputs in reference(requests).items():
        field = requests[request].field
        width = 8 * ((field.modulus.bit_length() + 63) // 64)
        want[request] = hashlib.sha256(b"".join(
            value.to_bytes(width, "little")
            for lane in outputs for value in lane)).hexdigest()[:16]
    for backend in BACKENDS:
        with use_backend(backend):
            journal = WriteAheadJournal()
            ProofServer(DGX_A100, journal=journal).serve(requests)
        got = {record.payload["request_id"]: record.payload["digest"]
               for record in journal if record.kind == "emit"}
        assert got == want, backend
