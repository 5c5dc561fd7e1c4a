"""Prime fields GF(p) and their elements.

The NTT engines in this library operate on plain Python integers in
``[0, p)`` for speed, passing a :class:`PrimeField` around for the modulus
and root-of-unity bookkeeping.  :class:`FieldElement` is the user-facing
wrapper with operator overloading; it is a thin view over the same
integer representation.

Fields are value objects: two ``PrimeField`` instances with the same
modulus compare equal and interoperate freely.
"""

from __future__ import annotations

import functools
from typing import Iterable

from repro.errors import FieldError

__all__ = ["PrimeField", "FieldElement"]


def _is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24, probabilistic beyond."""
    if n < 2:
        return False
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small_primes:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small_primes:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The finite field GF(p) for an odd prime ``p``.

    Parameters
    ----------
    modulus:
        The prime modulus ``p``.
    generator:
        A generator of the full multiplicative group GF(p)*.  Optional;
        required only for operations that need primitive roots of unity
        (it is validated lazily when first used).
    name:
        Human-readable name used in reprs and benchmark reports.
    """

    __slots__ = ("modulus", "name", "_generator", "_two_adicity", "_root_cache")

    def __init__(self, modulus: int, generator: int | None = None,
                 name: str | None = None):
        if modulus < 3:
            raise FieldError(f"modulus must be an odd prime >= 3, got {modulus}")
        if not _is_probable_prime(modulus):
            raise FieldError(f"modulus {modulus} is not prime")
        self.modulus = modulus
        self.name = name or f"GF({modulus})"
        self._generator = generator % modulus if generator is not None else None
        two_adicity = 0
        odd = modulus - 1
        while odd % 2 == 0:
            odd //= 2
            two_adicity += 1
        self._two_adicity = two_adicity
        self._root_cache: dict[int, int] = {}

    # -- identity -----------------------------------------------------------

    def __repr__(self) -> str:
        return f"PrimeField({self.name}, bits={self.modulus.bit_length()})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("PrimeField", self.modulus))

    # -- basic scalar arithmetic (plain ints in [0, p)) ----------------------

    def add(self, a: int, b: int) -> int:
        """Return ``(a + b) mod p``."""
        s = a + b
        p = self.modulus
        return s - p if s >= p else s

    def sub(self, a: int, b: int) -> int:
        """Return ``(a - b) mod p``."""
        d = a - b
        return d + self.modulus if d < 0 else d

    def mul(self, a: int, b: int) -> int:
        """Return ``(a * b) mod p``."""
        return a * b % self.modulus

    def neg(self, a: int) -> int:
        """Return ``-a mod p``."""
        return self.modulus - a if a else 0

    def inv(self, a: int) -> int:
        """Return the multiplicative inverse of ``a`` mod p.

        Raises :class:`FieldError` for ``a == 0``.
        """
        a %= self.modulus
        if a == 0:
            raise FieldError("zero has no multiplicative inverse")
        return pow(a, -1, self.modulus)

    def pow(self, a: int, e: int) -> int:
        """Return ``a**e mod p`` (negative exponents invert)."""
        return pow(a, e, self.modulus)

    def reduce(self, a: int) -> int:
        """Reduce an arbitrary integer into canonical ``[0, p)`` form."""
        return a % self.modulus

    # -- multiplicative structure --------------------------------------------

    @property
    def two_adicity(self) -> int:
        """Largest ``s`` such that ``2**s`` divides ``p - 1``.

        Radix-2 NTTs exist exactly for sizes up to ``2**two_adicity``.
        """
        return self._two_adicity

    @property
    def multiplicative_generator(self) -> int:
        """A generator of GF(p)*; found by search if not supplied."""
        if self._generator is None:
            self._generator = self._find_generator()
        return self._generator

    def _find_generator(self) -> int:
        # Only the 2-part of the group order matters for NTT roots, but we
        # search for a full generator so coset constructions are sound.
        factors = _factorize(self.modulus - 1)
        for candidate in range(2, min(self.modulus, 10_000)):
            if all(pow(candidate, (self.modulus - 1) // q, self.modulus) != 1
                   for q in factors):
                return candidate
        raise FieldError(f"no small generator found for {self.name}")

    def root_of_unity(self, order: int) -> int:
        """Return a primitive ``order``-th root of unity.

        ``order`` must be a power of two dividing ``p - 1``.
        """
        if order < 1 or order & (order - 1):
            raise FieldError(f"root order must be a power of two, got {order}")
        if order == 1:
            return 1
        log_order = order.bit_length() - 1
        if log_order > self._two_adicity:
            raise FieldError(
                f"{self.name} has two-adicity {self._two_adicity}; "
                f"no root of order 2^{log_order} exists")
        cached = self._root_cache.get(order)
        if cached is not None:
            return cached
        base = pow(self.multiplicative_generator,
                   (self.modulus - 1) >> self._two_adicity, self.modulus)
        # base has exact order 2**two_adicity; square down to the request.
        root = pow(base, 1 << (self._two_adicity - log_order), self.modulus)
        self._root_cache[order] = root
        return root

    def inv_root_of_unity(self, order: int) -> int:
        """Inverse of :meth:`root_of_unity` (for inverse transforms)."""
        return self.inv(self.root_of_unity(order))

    def root_of_unity_general(self, order: int) -> int:
        """A primitive root of *any* order dividing ``p - 1``.

        Unlike :meth:`root_of_unity` the order need not be a power of
        two; this is what Bluestein's algorithm uses to build
        arbitrary-length transforms on top of power-of-two convolutions.
        """
        if order < 1:
            raise FieldError(f"root order must be positive, got {order}")
        if (self.modulus - 1) % order:
            raise FieldError(
                f"{self.name}: no root of order {order} "
                f"(it does not divide p - 1)")
        if order == 1:
            return 1
        cached = self._root_cache.get(-order)  # negative key: general
        if cached is not None:
            return cached
        root = pow(self.multiplicative_generator,
                   (self.modulus - 1) // order, self.modulus)
        # Primitivity: the generator has full order, so root has exactly
        # `order`; assert the defining property anyway.
        for prime in _factorize(order):
            if pow(root, order // prime, self.modulus) == 1:
                raise FieldError(
                    f"internal error: non-primitive root of order {order}")
        self._root_cache[-order] = root
        return root

    # -- elements -------------------------------------------------------------

    def element(self, value: int) -> "FieldElement":
        """Wrap an integer as a :class:`FieldElement` of this field."""
        return FieldElement(self, value % self.modulus)

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def elements(self, values: Iterable[int]) -> list["FieldElement"]:
        """Wrap an iterable of integers as field elements."""
        return [self.element(v) for v in values]

    def random_element(self, rng) -> "FieldElement":
        """Draw a uniform element using ``rng`` (a ``random.Random``)."""
        return FieldElement(self, rng.randrange(self.modulus))

    def random_vector(self, n: int, rng) -> list[int]:
        """Draw ``n`` uniform raw values (plain ints, the engine format).

        The values, and the state ``rng`` is left in, are those of ``n``
        calls to ``rng.randrange(p)``: this inlines the same rejection
        loop over ``getrandbits(p.bit_length())`` that ``randrange``
        runs for a ``random.Random``.
        """
        p = self.modulus
        k = p.bit_length()
        getrandbits = rng.getrandbits
        out = []
        for _ in range(n):
            r = getrandbits(k)
            while r >= p:
                r = getrandbits(k)
            out.append(r)
        return out


@functools.lru_cache(maxsize=None)
def _factorize(n: int) -> tuple[int, ...]:
    """Prime factors of n (trial division + Pollard rho for big cofactors)."""
    factors: set[int] = set()
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % p == 0:
            factors.add(p)
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            factors.add(m)
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return tuple(sorted(factors))


def _pollard_rho(n: int) -> int:
    """Find a nontrivial factor of composite odd n."""
    import math
    import random
    rng = random.Random(0xC0FFEE ^ n)
    while True:
        x = rng.randrange(2, n - 1)
        y, c, d = x, rng.randrange(1, n - 1), 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


class FieldElement:
    """An element of a :class:`PrimeField` with operator overloading.

    Instances are immutable and hashable.  Mixed arithmetic with plain
    integers is supported (the integer is reduced into the field).
    """

    __slots__ = ("field", "value")

    def __init__(self, field: PrimeField, value: int):
        self.field = field
        self.value = value

    # -- helpers ---------------------------------------------------------------

    def _coerce(self, other: object) -> int | None:
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldError(
                    f"cannot mix elements of {self.field.name} and "
                    f"{other.field.name}")
            return other.value
        if isinstance(other, int):
            return other % self.field.modulus
        return None

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: object) -> "FieldElement":
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.field, self.field.add(self.value, v))

    __radd__ = __add__

    def __sub__(self, other: object) -> "FieldElement":
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(self.value, v))

    def __rsub__(self, other: object) -> "FieldElement":
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.field, self.field.sub(v, self.value))

    def __mul__(self, other: object) -> "FieldElement":
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.field, self.field.mul(self.value, v))

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "FieldElement":
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.field,
                            self.field.mul(self.value, self.field.inv(v)))

    def __rtruediv__(self, other: object) -> "FieldElement":
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.field,
                            self.field.mul(v, self.field.inv(self.value)))

    def __pow__(self, exponent: int) -> "FieldElement":
        return FieldElement(self.field, self.field.pow(self.value, exponent))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, self.field.neg(self.value))

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse; raises on zero."""
        return FieldElement(self.field, self.field.inv(self.value))

    # -- comparisons / protocol ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldElement):
            return self.field == other.field and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.field.modulus
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.modulus, self.value))

    def __bool__(self) -> bool:
        return self.value != 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"{self.value}∈{self.field.name}"
