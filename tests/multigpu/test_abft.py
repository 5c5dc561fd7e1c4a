"""ABFT golden-vector and chaos tests for silent-data-corruption.

Three layers of the SDC defense are pinned here:

* the Freivalds probe math itself — the cached ``ProbeVector`` must
  satisfy ``r . (W x) == (W^T r) . x`` for real transforms (plain,
  inverse, and coset), and ``verify_leg`` must accept clean legs and
  reject corrupted ones;
* the resilient engine under the compute-fault chaos grid — every
  recoverable scenario must reproduce the fault-free reference
  bit-exactly AND leave a trace where every injected corruption is
  claimed by an ``abft-detect`` event (the ``trace.undetected-
  corruption`` rule audits the 1:1 pairing);
* the packed polynomial path — the resident currency replays compute
  faults onto its output, so a checker must catch them there too, and
  a checker-less packed run must *fail* the trace audit (that is what
  "silent" means).
"""

import pytest

from repro.analysis.tracecheck import check_trace
from repro.errors import ResilienceError, SimulationError
from repro.field import BN254_FR, TEST_FIELD_7681, numpy_available, use_backend
from repro.field.packed import pack_values, packed_ops
from repro.multigpu import (
    DistributedPolynomial, DistributedVector, ResilientNTTEngine,
    RetryPolicy, UniNTTEngine,
)
from repro.multigpu.abft import AbftChecker, ProbeLedger, geometric_probe
from repro.ntt import coset_ntt, intt, ntt
from repro.sim import FaultInjector, FaultPlan, SimCluster

F = TEST_FIELD_7681


def abft_setup(gpus, specs, seed=0xABF7, **kwargs):
    plan = FaultPlan.from_specs(specs, seed=seed)
    injector = FaultInjector(plan, F.modulus)
    cluster = SimCluster(F, gpus, injector=injector)
    return ResilientNTTEngine(cluster, UniNTTEngine, abft=True,
                              seed=seed, **kwargs)


class TestProbeLedger:
    def test_miss_builds_then_hit_is_free(self):
        ledger = ProbeLedger(seed=3)
        probe, phase, hit = ledger.prepare(F, 64, "forward")
        assert not hit and phase is not None
        assert phase.field_muls == 6 * 64
        again, phase2, hit2 = ledger.prepare(F, 64, "forward")
        assert hit2 and phase2 is None and again is probe
        assert ledger.stats() == {"hits": 1, "misses": 1, "resident": 1}

    def test_shapes_are_keyed_by_field_n_direction(self):
        ledger = ProbeLedger()
        ledger.prepare(F, 64, "forward")
        ledger.prepare(F, 64, "inverse")
        ledger.prepare(F, 128, "forward")
        assert len(ledger) == 3
        assert ledger.shapes() == (
            (F.name, 64, "forward"), (F.name, 64, "inverse"),
            (F.name, 128, "forward"))

    def test_same_seed_same_probe(self):
        a, _, _ = ProbeLedger(seed=7).prepare(F, 32, "forward")
        b, _, _ = ProbeLedger(seed=7).prepare(F, 32, "forward")
        assert a == b

    @pytest.mark.parametrize("n", [0, 1, 3, 48])
    def test_non_power_of_two_rejected(self, n):
        with pytest.raises(SimulationError):
            ProbeLedger().prepare(F, n, "forward")

    def test_probe_satisfies_the_freivalds_identity(self, rng):
        """``r . ntt(x) == weights . x`` — the whole point of the cache."""
        n = 64
        p = F.modulus
        probe, _, _ = ProbeLedger(seed=11).prepare(F, n, "forward")
        x = F.random_vector(n, rng)
        y = ntt(F, x)
        lhs = sum(r * v for r, v in zip(probe.r_powers, y)) % p
        rhs = sum(a * v for a, v in zip(probe.weights, x)) % p
        assert lhs == rhs

    @pytest.mark.parametrize("t", [0, 2, 1234])
    def test_geometric_probe_holds_at_any_admissible_point(self, t, rng):
        """The unmemoized build the resilient output probe shares: the
        identity holds at every ``t`` with ``t^n != 1``, ``t = 0``
        included (it checks ``Y[0] == sum x``)."""
        n = 32
        assert pow(t, n, F.modulus) != 1
        powers, weights = geometric_probe(F, t, F.root_of_unity(n), n)
        x = F.random_vector(n, rng)
        y = ntt(F, x)
        p = F.modulus
        assert sum(r * v for r, v in zip(powers, y)) % p \
            == sum(a * v for a, v in zip(weights, x)) % p


class TestVerifyLeg:
    def checker(self, gpus=4):
        return AbftChecker(SimCluster(F, gpus))

    def test_clean_forward_leg_passes(self, rng):
        n = 64
        x = F.random_vector(n, rng)
        checker = self.checker()
        verdict = checker.verify_leg(inputs=x, outputs=ntt(F, x), n=n,
                                     inverse=False)
        assert verdict.ok and verdict.detections == ()
        assert checker.probes == 1 and checker.detections == 0

    def test_clean_inverse_leg_passes(self, rng):
        n = 64
        y = F.random_vector(n, rng)
        verdict = self.checker().verify_leg(inputs=y, outputs=intt(F, y),
                                            n=n, inverse=True)
        assert verdict.ok

    def test_clean_coset_leg_passes(self, rng):
        n = 64
        shift = F.multiplicative_generator
        x = F.random_vector(n, rng)
        verdict = self.checker().verify_leg(
            inputs=x, outputs=coset_ntt(F, x, shift), n=n,
            inverse=False, coset_shift=shift)
        assert verdict.ok

    def test_single_corrupted_element_is_detected(self, rng):
        n = 64
        x = F.random_vector(n, rng)
        y = ntt(F, x)
        y[17] = (y[17] + 1) % F.modulus
        checker = self.checker()
        verdict = checker.verify_leg(inputs=x, outputs=y, n=n,
                                     inverse=False)
        assert not verdict.ok
        # No injector on the cluster: the mismatch is still surfaced,
        # attributed to no specific fault.
        assert verdict.detections == ("unattributed",)
        assert checker.detections == 1
        kinds = [e.kind for e in checker.cluster.trace.events]
        assert "abft-probe" in kinds and "abft-detect" in kinds

    def test_length_mismatch_raises(self, rng):
        with pytest.raises(SimulationError):
            self.checker().verify_leg(inputs=[1, 2], outputs=[1, 2, 3],
                                      n=4, inverse=False)

    def test_max_attempts_validated(self):
        with pytest.raises(SimulationError):
            AbftChecker(SimCluster(F, 2), max_attempts=0)


# Every compute fault targets an early local step so it lands inside
# the first transform leg.  ``mercurial-device`` uses a fractional coin
# (may or may not fire on any given step — the trace audit holds either
# way); the one-shot kinds fire deterministically.
COMPUTE_GRID = [
    ("bitflip", ["compute-bitflip@0:gpu=1,delta=9"]),
    ("twiddle", ["twiddle-corrupt@0:gpu=2,delta=3"]),
    ("mercurial", ["mercurial-device@0:gpu=1,factor=0.15,delta=5"]),
    ("double", ["compute-bitflip@0:gpu=1,delta=9",
                "compute-bitflip@1:gpu=3,delta=2"]),
]


class TestResilientChaosGrid:
    @pytest.mark.parametrize("gpus,n", [(4, 256), (8, 512)],
                             ids=["4gpu-n256", "8gpu-n512"])
    @pytest.mark.parametrize("name,specs", COMPUTE_GRID,
                             ids=[name for name, _ in COMPUTE_GRID])
    def test_compute_faults_are_caught_and_bit_exact(self, name, specs,
                                                     gpus, n, rng):
        values = F.random_vector(n, rng)
        # A sticky mercurial device re-corrupts retries with
        # probability ``factor`` per local step, so give the recovery
        # loop headroom; the one-shot kinds never need it.
        engine = abft_setup(gpus, specs,
                            policy=RetryPolicy(max_attempts=10))
        vec = DistributedVector.from_values(
            engine.cluster, values, engine.input_layout(n))
        out = engine.forward(vec)

        assert out.to_values() == ntt(F, values)
        # The golden invariant: zero undetected corruptions.  The
        # trace.undetected-corruption rule fails this if any injected
        # fault fired without a matching abft-detect.
        findings = check_trace(engine.cluster.trace)
        assert findings == [], [str(f) for f in findings]

    def test_one_shot_bitflip_detects_reexecutes_localizes(self, rng):
        n = 256
        values = F.random_vector(n, rng)
        engine = abft_setup(4, ["compute-bitflip@0:gpu=1,delta=9"])
        out = engine.forward(DistributedVector.from_values(
            engine.cluster, values, engine.input_layout(n)))
        assert out.to_values() == ntt(F, values)
        checker = engine.abft_checker
        assert checker.detections == 1
        assert checker.reexecutions == 1
        # The clean verification after the repair compares the stashed
        # corrupted partials against the good ones and localizes.
        assert checker.localizations == 1
        kinds = [e.kind for e in engine.cluster.trace.events]
        for kind in ("fault", "abft-probe", "abft-detect", "abft-reexec",
                     "abft-localize"):
            assert kind in kinds, f"missing {kind} event"

    def test_roundtrip_with_coset_under_compute_fault(self, rng):
        n = 128
        values = F.random_vector(n, rng)
        shift = 3
        engine = abft_setup(4, ["compute-bitflip@0:gpu=0,delta=7"])
        vec = DistributedVector.from_values(
            engine.cluster, values, engine.input_layout(n))
        out = engine.forward(vec, coset_shift=shift)
        back = engine.inverse(out, coset_shift=shift)
        assert back.to_values() == values
        findings = check_trace(engine.cluster.trace)
        assert findings == [], [str(f) for f in findings]

    def test_fully_mercurial_device_exhausts_retries(self, rng):
        """factor=1.0: every re-execution re-corrupts, so the retry
        budget runs out and the engine refuses to emit."""
        n = 64
        engine = abft_setup(4, ["mercurial-device@0:gpu=1,factor=1.0"])
        vec = DistributedVector.from_values(
            engine.cluster, F.random_vector(n, rng),
            engine.input_layout(n))
        with pytest.raises(ResilienceError, match="ABFT"):
            engine.forward(vec)

    def test_abft_off_lets_corruption_through_and_audit_flags_it(
            self, rng):
        """The counterfactual: without ABFT (and without the output
        probe) the corrupted transform is emitted, and the trace audit
        reports the undetected corruption."""
        n = 256
        values = F.random_vector(n, rng)
        plan = FaultPlan.from_specs(["compute-bitflip@0:gpu=1,delta=9"],
                                    seed=0xABF7)
        cluster = SimCluster(F, 4, injector=FaultInjector(plan, F.modulus))
        engine = ResilientNTTEngine(cluster, UniNTTEngine, abft=False,
                                    verify_output=False)
        out = engine.forward(DistributedVector.from_values(
            cluster, values, engine.input_layout(n)))
        assert out.to_values() != ntt(F, values), (
            "the injected bitflip should have corrupted the output")
        findings = check_trace(cluster.trace)
        assert any(f.check == "trace.undetected-corruption"
                   for f in findings), [str(f) for f in findings]


@pytest.mark.skipif(not numpy_available(),
                    reason="packed shards need the numpy/multilimb backend")
class TestPackedPolynomialAbft:
    """Compute faults replay onto the packed currency; the checker
    bound to the engine must catch them without unpacking the world."""

    FP = BN254_FR
    N = 64

    @pytest.fixture(autouse=True)
    def _multilimb_backend(self):
        with use_backend("multilimb"):
            yield

    def packed_cluster(self, specs, seed=0xABF8):
        plan = FaultPlan.from_specs(specs, seed=seed)
        injector = FaultInjector(plan, self.FP.modulus)
        return SimCluster(self.FP, 4, injector=injector)

    def stage(self, engine, values):
        ops = packed_ops(engine.field, len(values))
        assert ops is not None
        poly = DistributedPolynomial.from_coefficients(
            engine, pack_values(ops, list(values)))
        assert poly.packed, "fault plan should be compute-only"
        return poly

    @pytest.mark.parametrize("name,specs", COMPUTE_GRID[:3],
                             ids=[n for n, _ in COMPUTE_GRID[:3]])
    def test_checker_keeps_packed_transform_bit_exact(self, name, specs,
                                                      rng):
        values = self.FP.random_vector(self.N, rng)
        cluster = self.packed_cluster(specs)
        engine = UniNTTEngine(cluster)
        engine.abft_checker = AbftChecker(cluster)
        out = self.stage(engine, values).to_evaluations()
        assert out.values() == ntt(self.FP, values)
        findings = check_trace(cluster.trace)
        assert findings == [], [str(f) for f in findings]

    def test_unchecked_packed_corruption_flagged_by_audit(self, rng):
        values = self.FP.random_vector(self.N, rng)
        cluster = self.packed_cluster(["compute-bitflip@0:gpu=1,delta=9"])
        engine = UniNTTEngine(cluster)  # no abft_checker attached
        out = self.stage(engine, values).to_evaluations()
        assert out.values() != ntt(self.FP, values), (
            "the replayed bitflip should have corrupted the output")
        findings = check_trace(cluster.trace)
        assert any(f.check == "trace.undetected-corruption"
                   for f in findings), [str(f) for f in findings]

    def test_sticky_mercurial_packed_exhausts_attempts(self, rng):
        values = self.FP.random_vector(self.N, rng)
        cluster = self.packed_cluster(
            ["mercurial-device@0:gpu=1,factor=1.0"])
        engine = UniNTTEngine(cluster)
        engine.abft_checker = AbftChecker(cluster, max_attempts=2)
        with pytest.raises(ResilienceError, match="ABFT"):
            self.stage(engine, values).to_evaluations()
