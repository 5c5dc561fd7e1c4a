"""Tests for the packed shard currency of ``DistributedPolynomial``.

Packed shards carry backend-native arrays (limb planes for the big ZKP
fields) through ``to_evaluations`` / ``to_coefficients`` / pointwise
algebra without round-tripping to ``list[int]``.  These tests pin the
three contracts that make the currency safe to use anywhere the list
currency is: bit-identical values, *identical* accounting (per-GPU
counters and trace-event signatures), and identical error behavior on
every ``_pointwise`` edge (mismatched engines/sizes/forms/cosets,
mixed currencies, degree boundaries) — plus the checkpoint/restore
regression for packed coset-shifted mid-pipeline snapshots.
"""

import pytest

from repro.errors import PartitionError
from repro.field import BN254_FR, GOLDILOCKS, numpy_available, use_backend
from repro.field.packed import (
    pack_stats, pack_values, packed_disabled, packed_ops,
)
from repro.multigpu import (
    ColumnBlockLayout, DistributedPolynomial, TransposedBlockLayout,
    UniNTTEngine,
)
from repro.multigpu.base import VectorCheckpoint
from repro.multigpu.polynomial import _layout_indices
from repro.ntt import coset_ntt, naive_cyclic_convolution, ntt
from repro.sim import SimCluster

pytestmark = pytest.mark.skipif(
    not numpy_available(),
    reason="packed shards need the numpy/multilimb backend")

F = BN254_FR
N = 64


@pytest.fixture
def engine():
    return UniNTTEngine(SimCluster(F, 4))


@pytest.fixture(autouse=True)
def _multilimb_backend():
    with use_backend("multilimb"):
        yield


def packed_poly(engine, values, form="coefficient", coset_shift=None):
    ops = packed_ops(engine.field, len(values))
    assert ops is not None
    arr = pack_values(ops, list(values))
    if form == "coefficient":
        return DistributedPolynomial.from_coefficients(engine, arr)
    return DistributedPolynomial.from_evaluations(
        engine, arr, coset_shift=coset_shift)


class TestPackedCarriage:
    def test_staging_keeps_packed(self, engine, rng):
        poly = packed_poly(engine, F.random_vector(N, rng))
        assert poly.packed and poly.n == N
        assert "packed" in repr(poly)

    def test_transforms_stay_packed_and_bit_exact(self, engine, rng):
        coeffs = F.random_vector(N, rng)
        pack_stats.reset()
        poly = packed_poly(engine, coeffs)
        evaluated = poly.to_evaluations()
        assert evaluated.packed
        back = evaluated.to_coefficients()
        assert back.packed
        # Gathering values is the only unpack; no transform unpacked.
        assert pack_stats.snapshot()["hot_unpacks"] == 0
        assert evaluated.values() == ntt(F, coeffs)
        assert back.values() == coeffs

    def test_coset_transform_bit_exact(self, engine, rng):
        coeffs = F.random_vector(N, rng)
        shift = F.multiplicative_generator
        on_coset = packed_poly(engine, coeffs).to_evaluations(
            coset_shift=shift)
        assert on_coset.packed and on_coset.coset_shift == shift
        assert on_coset.values() == coset_ntt(F, coeffs, shift)
        assert on_coset.to_coefficients().values() == coeffs

    def test_staging_list_stays_list(self, engine, rng):
        poly = DistributedPolynomial.from_coefficients(
            engine, F.random_vector(N, rng))
        assert not poly.packed

    def test_packed_disabled_falls_back_to_lists(self, engine, rng):
        coeffs = F.random_vector(N, rng)
        ops = packed_ops(F, N)
        arr = pack_values(ops, coeffs)
        with packed_disabled():
            poly = DistributedPolynomial.from_coefficients(engine, arr)
            assert not poly.packed
            assert poly.to_evaluations().values() == ntt(F, coeffs)

    def test_small_sizes_stage_as_lists(self, rng):
        """Below the UniNTT G^2 floor the packed gate declines."""
        engine = UniNTTEngine(SimCluster(F, 8))
        ops = packed_ops(F, 32)
        arr = pack_values(ops, F.random_vector(32, rng))
        poly = DistributedPolynomial.from_coefficients(engine, arr)
        assert not poly.packed  # 32 < 8*8


class TestAccountingParity:
    @pytest.mark.parametrize("field", [F, GOLDILOCKS], ids=lambda f: f.name)
    @pytest.mark.parametrize("keep_permuted", [True, False])
    def test_counters_and_trace_match_list_path(self, field, keep_permuted,
                                                rng):
        """The packed pipeline's bill is indistinguishable from the
        materialized one: same per-GPU counters, same event stream."""
        from repro.multigpu.unintt import UniNTTOptions

        coeffs = field.random_vector(N, rng)
        shift = field.multiplicative_generator

        def run(packed):
            cluster = SimCluster(field, 4)
            engine = UniNTTEngine(cluster, options=UniNTTOptions(
                keep_permuted_output=keep_permuted))
            if packed:
                poly = packed_poly(engine, coeffs)
                assert poly.packed
            else:
                poly = DistributedPolynomial.from_coefficients(
                    engine, coeffs)
            evals = poly.to_evaluations(coset_shift=shift)
            out = (evals * evals).to_coefficients()
            counters = [g.counters.snapshot() for g in cluster.gpus]
            events = [(e.kind, e.level, e.max_bytes_per_gpu,
                       e.total_bytes, e.field_muls, e.detail)
                      for e in cluster.trace.events]
            return out.values(), counters, events

        packed_vals, packed_ctrs, packed_events = run(True)
        list_vals, list_ctrs, list_events = run(False)
        assert packed_vals == list_vals
        assert packed_ctrs == list_ctrs
        assert packed_events == list_events


class TestPointwiseEdges:
    def test_degree_boundary_product(self, engine, rng):
        """deg a + deg b == n - 1: the cyclic product IS the schoolbook
        product — the quotient pipeline's no-wraparound boundary."""
        p = F.modulus
        half = N // 2
        a = F.random_vector(half, rng) + [0] * (N - half)       # deg 31
        b = F.random_vector(half, rng) + [0] * (N - half)
        b[half - 1] = b[half - 1] or 1                          # deg 31
        school = [0] * N
        for i in range(half):
            for j in range(half):
                school[i + j] = (school[i + j] + a[i] * b[j]) % p
        prod = (packed_poly(engine, a).to_evaluations()
                * packed_poly(engine, b).to_evaluations())
        assert prod.packed
        assert prod.to_coefficients().values() == school

    def test_wraparound_product_is_cyclic(self, engine, rng):
        a = F.random_vector(N, rng)
        b = F.random_vector(N, rng)
        prod = (packed_poly(engine, a).to_evaluations()
                * packed_poly(engine, b).to_evaluations())
        assert prod.to_coefficients().values() == \
            naive_cyclic_convolution(F, a, b)

    def test_coset_pointwise_stays_on_coset(self, engine, rng):
        shift = F.multiplicative_generator
        a = F.random_vector(N, rng)
        pa = packed_poly(engine, a).to_evaluations(coset_shift=shift)
        sq = pa * pa
        assert sq.packed and sq.coset_shift == shift
        p = F.modulus
        assert sq.values() == [v * v % p
                               for v in coset_ntt(F, a, shift)]

    def test_mixed_currencies_unify_on_lists(self, engine, rng):
        a = F.random_vector(N, rng)
        b = F.random_vector(N, rng)
        pa = packed_poly(engine, a).to_evaluations()
        pb = DistributedPolynomial.from_coefficients(
            engine, b).to_evaluations()
        prod = pa * pb
        assert not prod.packed
        assert prod.to_coefficients().values() == \
            naive_cyclic_convolution(F, a, b)

    @pytest.mark.parametrize("packed", [True, False],
                             ids=["packed", "lists"])
    def test_error_edges_match_both_currencies(self, engine, packed, rng):
        def stage(values, target=None):
            target = target or engine
            if packed:
                return packed_poly(target, values)
            return DistributedPolynomial.from_coefficients(target, values)

        pa = stage(F.random_vector(N, rng))
        # Multiply demands evaluation form.
        with pytest.raises(PartitionError, match="evaluation form"):
            pa * pa
        # Mismatched engines (and so shard counts) are rejected.
        other = UniNTTEngine(SimCluster(F, 2))
        with pytest.raises(PartitionError, match="share an engine"):
            pa + stage(F.random_vector(N, rng), target=other)
        # Mismatched sizes.
        with pytest.raises(PartitionError, match="sizes differ"):
            pa + stage(F.random_vector(2 * N, rng))
        # Form mismatch.
        with pytest.raises(PartitionError, match="cannot add"):
            pa + pa.to_evaluations()
        # Different cosets never combine pointwise.
        ea = pa.to_evaluations(coset_shift=5)
        eb = stage(F.random_vector(N, rng)).to_evaluations(coset_shift=7)
        with pytest.raises(PartitionError, match="cannot multiply"):
            ea * eb


class TestCheckpointRestore:
    def test_packed_coset_checkpoint_roundtrips(self, engine, rng):
        """Regression: a packed, coset-shifted, mid-pipeline snapshot
        restores bit-exactly — including onto a different cluster."""
        coeffs = F.random_vector(N, rng)
        shift = F.multiplicative_generator
        evals = packed_poly(engine, coeffs).to_evaluations(
            coset_shift=shift)
        snap = evals.checkpoint()
        assert snap.form == "evaluation" and snap.coset_shift == shift
        for gpus in (4, 8):
            target = UniNTTEngine(SimCluster(F, gpus))
            restored = DistributedPolynomial.restore(target, snap)
            assert restored.packed
            assert restored.form == "evaluation"
            assert restored.coset_shift == shift
            assert restored.values() == evals.values()
            assert restored.to_coefficients().values() == coeffs

    def test_legacy_checkpoint_restores_as_coefficients(self, engine, rng):
        coeffs = F.random_vector(N, rng)
        snap = VectorCheckpoint(values=tuple(coeffs))
        restored = DistributedPolynomial.restore(engine, snap)
        assert restored.form == "coefficient"
        assert restored.coset_shift is None
        assert restored.values() == coeffs

    def test_checkpoint_unpack_is_not_hot(self, engine, rng):
        """The durability boundary may unpack — but never on a hot leg."""
        poly = packed_poly(engine, F.random_vector(N, rng))
        pack_stats.reset()
        poly.checkpoint()
        snap = pack_stats.snapshot()
        assert snap["unpacks"] >= 1
        assert snap["hot_unpacks"] == 0


class TestLayoutIndices:
    @pytest.mark.parametrize("layout_cls",
                             [ColumnBlockLayout, TransposedBlockLayout])
    def test_indices_follow_the_layout_value(self, layout_cls):
        """Layouts differing only in rows/cols get their own indices."""
        for rows, cols in ((4, 16), (16, 4)):
            layout = layout_cls(n=64, gpu_count=4, rows=rows, cols=cols)
            assert [list(idx) for idx in _layout_indices(layout)] == [
                [layout.global_index(gpu, local)
                 for local in range(layout.shard_size)]
                for gpu in range(layout.gpu_count)]
