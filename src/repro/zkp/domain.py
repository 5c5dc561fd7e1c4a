"""Evaluation domains: multiplicative subgroups and their cosets.

A domain is the size-n subgroup H = <w> of GF(p)* that a proof system
interpolates over.  The vanishing polynomial of H is ``Z(x) = x^n - 1``;
on a coset ``g*H`` it takes the constant value ``g^n - 1``, which is the
identity the quotient computation in :mod:`repro.zkp.qap` exploits.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import NTTError
from repro.field.prime_field import PrimeField
from repro.ntt import coset as coset_ntt_mod
from repro.ntt import radix2
from repro.ntt.twiddle import TwiddleCache, default_cache

__all__ = ["EvaluationDomain"]


class EvaluationDomain:
    """The size-n multiplicative subgroup of a prime field."""

    def __init__(self, field: PrimeField, size: int,
                 cache: TwiddleCache | None = None):
        if size < 1 or size & (size - 1):
            raise NTTError(f"domain size must be a power of two, got {size}")
        self.field = field
        self.size = size
        self.cache = cache or default_cache
        self.generator = field.root_of_unity(size)
        self.size_inv = field.inv(size % field.modulus)

    def __repr__(self) -> str:
        return f"EvaluationDomain({self.field.name}, size={self.size})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, EvaluationDomain)
                and other.field == self.field and other.size == self.size)

    def __hash__(self) -> int:
        return hash((self.field.modulus, self.size))

    # -- points ----------------------------------------------------------------

    def element(self, index: int) -> int:
        """The domain point ``w^index``."""
        return self.field.pow(self.generator, index % self.size)

    def elements(self) -> tuple[int, ...]:
        """All n domain points in index order (the shared twiddle tuple)."""
        return self.cache.powers(self.field, self.generator, self.size)

    def coset_elements(self, shift: int) -> list[int]:
        """All points of the coset ``shift * H``."""
        p = self.field.modulus
        return [shift * e % p for e in self.elements()]

    # -- vanishing polynomial ------------------------------------------------------

    def vanishing_eval(self, point: int) -> int:
        """``Z(point) = point^n - 1``."""
        return (self.field.pow(point, self.size) - 1) % self.field.modulus

    def vanishing_on_coset(self, shift: int) -> int:
        """The constant value of Z on the coset ``shift * H``."""
        value = self.vanishing_eval(shift)
        if value == 0:
            raise NTTError(
                f"coset shift {shift} lies in the domain; Z vanishes")
        return value

    # -- transforms ----------------------------------------------------------------

    def ntt(self, coefficients: Sequence[int]) -> list[int]:
        """Coefficients -> evaluations on H."""
        self._check_len(coefficients)
        return radix2.ntt(self.field, coefficients, self.cache)

    def intt(self, evaluations: Sequence[int]) -> list[int]:
        """Evaluations on H -> coefficients."""
        self._check_len(evaluations)
        return radix2.intt(self.field, evaluations, self.cache)

    def coset_ntt(self, coefficients: Sequence[int], shift: int) -> list[int]:
        """Coefficients -> evaluations on ``shift * H``."""
        self._check_len(coefficients)
        return coset_ntt_mod.coset_ntt(self.field, coefficients, shift,
                                       self.cache)

    def coset_intt(self, evaluations: Sequence[int], shift: int) -> list[int]:
        """Evaluations on ``shift * H`` -> coefficients."""
        self._check_len(evaluations)
        return coset_ntt_mod.coset_intt(self.field, evaluations, shift,
                                        self.cache)

    def default_coset_shift(self) -> int:
        """A canonical shift outside H: the field's generator."""
        return self.field.multiplicative_generator

    def _check_len(self, values: Sequence[int]) -> None:
        if len(values) != self.size:
            raise NTTError(
                f"domain has size {self.size}, got {len(values)} values")

    # -- Lagrange ---------------------------------------------------------------------

    def lagrange_coefficients(self, point: int) -> list[int]:
        """Evaluations L_i(point) of all Lagrange basis polynomials.

        Uses the barycentric identity
        ``L_i(x) = (x^n - 1) * w^i / (n * (x - w^i))``; O(n) after one
        batch inversion.  ``point`` must lie outside the domain.
        """
        from repro.field.vector import vec_inv

        p = self.field.modulus
        z = self.vanishing_eval(point)
        if z == 0:
            raise NTTError("point lies in the domain; use a unit vector")
        points = self.elements()
        denominators = [(point - e) % p for e in points]
        inv_dens = vec_inv(self.field, denominators)
        scale = z * self.size_inv % p
        return [scale * e % p * inv_d % p
                for e, inv_d in zip(points, inv_dens)]
