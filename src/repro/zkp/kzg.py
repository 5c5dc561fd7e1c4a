"""KZG polynomial commitments (commit / open / check).

PLONK-family provers commit to polynomials with the Kate-Zaverucha-
Goldberg scheme: a commitment is ``[p(tau)] G`` over a powers-of-tau
SRS, and an opening at point ``z`` is a commitment to the quotient
``q(x) = (p(x) - p(z)) / (x - z)``.  The division is exact iff the
claimed value is correct — that polynomial identity is the scheme's
soundness core and is fully exercised here.

Production verification checks ``e(C - [v]G, H) = e(W, [tau - z]H)``
with a pairing; this reproduction (prover-side acceleration is the
subject) checks the same identity in G1 using the setup trapdoor, which
the toy ceremony of :func:`repro.zkp.prover.trusted_setup` retains.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ProverError
from repro.field.packed import (
    pack_coefficients, pack_stats, pack_values, packed_coset_intt,
    packed_coset_ntt, packed_ops, packed_pad, table_mul, unpack_values,
)
from repro.field.vector import vec_inv
from repro.ntt.polymul import next_power_of_two
from repro.ntt.twiddle import default_cache
from repro.zkp.curve import CurvePoint
from repro.zkp.polynomial import Polynomial
from repro.zkp.prover import ProvingKey

__all__ = ["KzgOpening", "KzgScheme"]


@dataclass(frozen=True)
class KzgOpening:
    """An evaluation claim with its witness commitment."""

    point: int
    value: int
    witness: CurvePoint


class KzgScheme:
    """Commitments and openings over one powers-of-tau SRS."""

    def __init__(self, srs: ProvingKey):
        self.srs = srs
        self.curve = srs.curve

    def commit(self, poly: Polynomial) -> CurvePoint:
        """``[poly(tau)] G`` by MSM over the SRS."""
        return self.srs.commit(poly)

    def open(self, poly: Polynomial, point: int) -> KzgOpening:
        """Open ``poly`` at ``point``: value plus quotient commitment.

        The quotient ``(p(x) - p(z)) / (x - z)`` is exact iff the
        claimed value is correct.  Large polynomials over lane-backed
        fields compute it resident (:meth:`_quotient_packed`); the
        reference path is exact synthetic division, whose non-zero
        remainder would indicate a bug and is asserted away.  Both
        paths produce the identical quotient (it is unique), so the
        opening is bit-independent of the route taken.
        """
        field = poly.field
        point %= field.modulus
        value = poly.evaluate(point)
        quotient = self._quotient_packed(poly, point, value)
        if quotient is None:
            numerator = poly - Polynomial(field, [value])
            divisor = Polynomial(field, [field.neg(point), 1])  # x - z
            quotient, remainder = numerator.divmod(divisor)
            if not remainder.is_zero():
                raise ProverError(
                    "KZG quotient division left a remainder")
        return KzgOpening(point=point, value=value,
                          witness=self.commit(quotient))

    def _quotient_packed(self, poly: Polynomial, point: int,
                         value: int) -> "Polynomial | None":
        """``(p(x) - p(z)) / (x - z)`` on packed arrays, or ``None``.

        Evaluates the numerator on a coset of a power-of-two domain
        large enough to carry the quotient's degree, divides pointwise
        by batch-inverted ``(g*w^i - z)`` denominators, and
        interpolates back — a coset NTT + pointwise + coset INTT leg
        that stays packed throughout (the KZG instance of the resident
        regime; the interpolation is exact because
        ``deg q < len(coeffs) <= n``).  Returns ``None`` when the
        backend has no lane ops for this size, the domain exceeds the
        field's two-adicity, or ``z`` happens to lie on the coset —
        the caller then takes synthetic division.
        """
        field = poly.field
        p = field.modulus
        coeffs = list(poly.coeffs)
        if len(coeffs) < 2:
            return None  # constant/zero: quotient is zero, divide scalar
        n = next_power_of_two(len(coeffs))
        ops = packed_ops(field, n)
        if ops is None or (n.bit_length() - 1) > field.two_adicity:
            return None
        shift = field.multiplicative_generator
        omega = field.root_of_unity(n)
        coset = [shift * w % p
                 for w in default_cache.powers(field, omega, n)]
        denominators = [(x - point) % p for x in coset]
        if any(d == 0 for d in denominators):
            return None  # z on the coset: cannot divide pointwise
        inv_dens = vec_inv(field, denominators)
        arr = packed_pad(ops, pack_values(ops, coeffs), n)
        with pack_stats.hot():
            evals = packed_coset_ntt(ops, arr, shift, default_cache)
            numer = ops.sub(evals, ops.pack([value]))
            q_evals = table_mul(ops)(numer, pack_coefficients(ops, inv_dens))
            q_arr = packed_coset_intt(ops, q_evals, shift, default_cache)
        return Polynomial(field, unpack_values(ops, q_arr))

    def check_with_trapdoor(self, commitment: CurvePoint,
                            opening: KzgOpening, tau: int) -> bool:
        """Verify the opening identity at the trapdoor (pairing-free).

        Checks ``C - [value] G == [tau - z] W`` in G1 — exactly the
        relation the pairing equation tests.
        """
        field_order = self.curve.order
        tau %= field_order
        generator = self.curve.generator()
        lhs = commitment - generator * opening.value
        rhs = opening.witness * ((tau - opening.point) % field_order)
        return lhs == rhs

    def batch_open(self, polys: list[Polynomial],
                   point: int) -> list[KzgOpening]:
        """Open several polynomials at the same point (PLONK's round 4)."""
        return [self.open(poly, point) for poly in polys]
