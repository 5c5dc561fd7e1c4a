"""Quadratic Arithmetic Programs: the R1CS-to-polynomial transform.

Groth16 proves an R1CS by encoding it over an evaluation domain H of
size ``n >= #constraints``: constraint i lives at the domain point
``w^i``, so the witness-combined polynomials

    ``A(x) = sum_j w_j A_j(x)``  (and B, C analogously)

satisfy ``A(w^i) * B(w^i) = C(w^i)`` for every i, i.e. ``A*B - C`` is
divisible by the vanishing polynomial ``Z(x) = x^n - 1``.  The prover's
job — and the NTT workload this library accelerates — is computing the
quotient ``H = (A*B - C) / Z``:

1. three size-n **INTTs** turn the witness-combined evaluation rows into
   coefficient form;
2. three size-n **coset NTTs** re-evaluate A, B, C on a coset ``g*H``
   (where Z is the non-zero constant ``g^n - 1``);
3. a pointwise combine and one **coset INTT** recover H's coefficients.

Seven transforms per proof — the operation profile the end-to-end
benchmark charges to the NTT engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import CircuitError
from repro.field.backend import get_backend
from repro.field.packed import (
    fused_mul_sub_scale, pack_stats, packed_coset_intt, packed_coset_ntt,
    packed_intt, packed_ops, unpack_values,
)
from repro.ntt.polymul import next_power_of_two
from repro.zkp.domain import EvaluationDomain
from repro.zkp.polynomial import Polynomial
from repro.zkp.r1cs import R1CS, CompiledR1CS

__all__ = ["QAP", "QapWitnessPolynomials"]

_UNSATISFIED = "witness does not satisfy the R1CS"


@dataclass(frozen=True)
class QapWitnessPolynomials:
    """The prover's intermediate polynomials for one witness."""

    a: Polynomial
    b: Polynomial
    c: Polynomial
    h: Polynomial

    def all(self) -> tuple[Polynomial, Polynomial, Polynomial, Polynomial]:
        return (self.a, self.b, self.c, self.h)


class QAP:
    """A QAP instance derived from an R1CS."""

    def __init__(self, r1cs: R1CS, domain: EvaluationDomain | None = None):
        if not r1cs.constraints:
            raise CircuitError("cannot build a QAP from an empty R1CS")
        if domain is None:
            domain = EvaluationDomain(
                r1cs.field, next_power_of_two(len(r1cs.constraints)))
        self.r1cs = r1cs
        self.domain = domain
        self.field = r1cs.field
        self._check_domain()
        # (key, CompiledR1CS) for the packed path, built on first use.
        self._compiled: tuple[tuple, CompiledR1CS] | None = None

    def __repr__(self) -> str:
        return (f"QAP({len(self.r1cs.constraints)} constraints over "
                f"domain size {self.domain.size})")

    def _check_domain(self) -> None:
        """The domain must host every constraint (R1CS may have grown)."""
        if self.domain.size < len(self.r1cs.constraints):
            raise CircuitError(
                f"domain of size {self.domain.size} cannot host "
                f"{len(self.r1cs.constraints)} constraints")

    # -- witness evaluation rows ------------------------------------------------

    def witness_rows(self, witness: Sequence[int]) -> tuple[
            list[int], list[int], list[int]]:
        """Evaluations of A, B, C on the domain for one witness.

        Row i is the sparse dot product of constraint i with the
        witness; rows beyond the constraint count are the zero padding
        of the 0 * 0 = 0 dummy constraints.
        """
        self._check_domain()
        padding = [0] * (self.domain.size - len(self.r1cs.constraints))
        return tuple(row + padding
                     for row in self.r1cs.evaluate_rows(witness))

    def compiled(self, ops) -> CompiledR1CS:
        """The R1CS compiled for ``ops``, rebuilt when its key changes.

        The key is what the compiled tables depend on: the active
        backend and lane format, the constraint count and the wire
        count (``R1CS`` only ever appends constraints and wires).
        """
        key = (get_backend().name, ops.fmt, len(self.r1cs.constraints),
               self.r1cs.num_wires)
        if self._compiled is None or self._compiled[0] != key:
            self._check_domain()
            self._compiled = (key, CompiledR1CS(self.r1cs, ops,
                                                self.domain.size))
        return self._compiled[1]

    # -- the quotient computation --------------------------------------------------

    def witness_polynomials(self, witness: Sequence[int]) -> QapWitnessPolynomials:
        """Run the seven-transform prover pipeline for one witness.

        The rows are evaluated once, and satisfaction is checked from
        them.  Raises :class:`CircuitError` if the witness does not
        satisfy the R1CS (the quotient would not be a polynomial).
        """
        ops = packed_ops(self.field, self.domain.size)
        if ops is not None:
            return self._packed_quotient(ops, witness)
        field = self.field
        p = field.modulus
        domain = self.domain
        a_rows, b_rows, c_rows = self.witness_rows(witness)
        if not self.r1cs.rows_satisfy(a_rows, b_rows, c_rows):
            raise CircuitError(_UNSATISFIED)

        # (1) three INTTs: evaluations -> coefficients.
        a_poly = Polynomial(field, domain.intt(a_rows))
        b_poly = Polynomial(field, domain.intt(b_rows))
        c_poly = Polynomial(field, domain.intt(c_rows))

        # (2) three coset NTTs: A*B - C has degree up to 2n-2, but the
        # quotient H has degree <= n-2, so n coset points suffice and Z
        # is the constant g^n - 1 there.
        shift = domain.default_coset_shift()
        z_inv = field.inv(domain.vanishing_on_coset(shift))
        a_coset = a_poly.evaluate_over_coset(domain, shift)
        b_coset = b_poly.evaluate_over_coset(domain, shift)
        c_coset = c_poly.evaluate_over_coset(domain, shift)

        # (3) pointwise quotient + one coset INTT.
        h_coset = [(a * b - c) % p * z_inv % p
                   for a, b, c in zip(a_coset, b_coset, c_coset)]
        h_poly = Polynomial(field, domain.coset_intt(h_coset, shift))
        return QapWitnessPolynomials(a=a_poly, b=b_poly, c=c_poly, h=h_poly)

    def _packed_quotient(
            self, ops, witness: Sequence[int]) -> QapWitnessPolynomials:
        """The seven-transform pipeline on packed arrays, resident.

        Same algebra as the list path, but the rows are born packed:
        the compiled R1CS (:meth:`compiled`) evaluates A·w, B·w and C·w
        on limb planes from one witness pack, satisfaction is checked
        there (``A·B == C`` on every lane, padding included), and the
        vectors stay in the backend's packed format through the three
        INTTs, three coset NTTs, the fused pointwise quotient and the
        coset INTT.  Four unpacks at the Polynomial boundary, *zero*
        format conversions on the hot legs (asserted by the
        :data:`repro.field.packed.pack_stats` hot counter).  Bit-exact
        against the list path.
        """
        self.r1cs.check_witness_shape(witness)
        a_arr, b_arr, c_arr = self.compiled(ops).rows(ops, witness)
        if not (ops.mul(a_arr, b_arr) == c_arr).all():
            raise CircuitError(_UNSATISFIED)
        field = self.field
        domain = self.domain
        cache = domain.cache
        shift = domain.default_coset_shift()
        z_inv = field.inv(domain.vanishing_on_coset(shift))
        with pack_stats.hot():
            a_coeff = packed_intt(ops, a_arr, cache)
            b_coeff = packed_intt(ops, b_arr, cache)
            c_coeff = packed_intt(ops, c_arr, cache)
            a_coset = packed_coset_ntt(ops, a_coeff, shift, cache)
            b_coset = packed_coset_ntt(ops, b_coeff, shift, cache)
            c_coset = packed_coset_ntt(ops, c_coeff, shift, cache)
            h_coset = fused_mul_sub_scale(
                ops, a_coset, b_coset, c_coset, z_inv)
            h_coeff = packed_coset_intt(ops, h_coset, shift, cache)
        return QapWitnessPolynomials(
            a=Polynomial(field, unpack_values(ops, a_coeff)),
            b=Polynomial(field, unpack_values(ops, b_coeff)),
            c=Polynomial(field, unpack_values(ops, c_coeff)),
            h=Polynomial(field, unpack_values(ops, h_coeff)))

    def check_divisibility(self, polys: QapWitnessPolynomials) -> bool:
        """Verify ``A*B - C == H*Z`` exactly (coefficient-level check)."""
        z = Polynomial.vanishing(self.field, self.domain.size)
        lhs = polys.a * polys.b - polys.c
        rhs = polys.h * z
        return lhs == rhs

    @property
    def transform_count(self) -> int:
        """NTT-type transforms per proof (the benchmark charge): 7."""
        return 7

    @property
    def msm_sizes(self) -> list[int]:
        """MSM sizes per proof: commitments to A, B, C, H."""
        n = self.domain.size
        return [n, n, n, n - 1]
