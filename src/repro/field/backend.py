"""Pluggable compute backends for bulk field arithmetic.

Every hot path in this library — the NTT engines, the polynomial
algebra, the simulator's charged local compute — bottoms out in the
bulk helpers of :mod:`repro.field.vector`.  This module makes the
substrate those helpers run on *pluggable*:

* :class:`PythonBackend` — the reference semantics: list comprehensions
  over arbitrary-precision Python integers.  Always available, always
  correct, the oracle the others are tested against.
* :class:`NumPyBackend` — vectorized arithmetic with a kernel for
  every :class:`PrimeField`: one ``uint64`` lane op per element below
  2^32, the hand-written 32-bit-limb reduction for Goldilocks (see
  ``docs/BACKENDS.md`` for the overflow analysis), and limb-plane
  CIOS Montgomery kernels (:mod:`repro.field.multilimb`) for every
  other modulus, from 33-bit primes up to BN254-Fr and BLS12-381-Fr
  (see ``docs/FIELDS.md``).

The active backend is process-global.  Select it with the
``REPRO_BACKEND`` environment variable (``python`` | ``numpy`` |
``multilimb`` | ``auto``), the ``repro --backend`` CLI flag, or
programmatically.  ``multilimb`` is another name for ``numpy``: both
resolve to the same instance.

>>> from repro.field.backend import get_backend, use_backend
>>> get_backend().name in ("python", "numpy")
True
>>> with use_backend("multilimb") as a, use_backend("numpy") as b:
...     a is b
True
>>> with use_backend("python") as b:
...     b.name
'python'

``auto`` resolves to ``numpy`` when NumPy is importable and falls back
to ``python`` (with a one-line warning when ``numpy`` was requested
explicitly but is unavailable).
"""

from __future__ import annotations

import abc
import functools
import os
import warnings
from typing import TYPE_CHECKING, Any, Sequence

from repro.errors import FieldError
from repro.field.multilimb import _MultiLimbKernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.field.prime_field import PrimeField

__all__ = [
    "FieldBackend", "PythonBackend", "NumPyBackend",
    "available_backends", "get_backend", "set_backend", "use_backend",
    "numpy_available", "BACKEND_ENV_VAR", "LANE_MIN_SIZE", "sized_lane_ops",
]

#: Environment variable consulted for the initial backend choice.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Below this many lanes the pack/unpack overhead of a lane backend
#: exceeds its whole-stage savings, so work stays on scalar code.
LANE_MIN_SIZE = 32


def numpy_available() -> bool:
    """True when NumPy can be imported (it is an optional dependency)."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


# ---------------------------------------------------------------------------
# interface
# ---------------------------------------------------------------------------


class FieldBackend(abc.ABC):
    """Bulk vector arithmetic over one :class:`PrimeField`.

    A backend works on *packed* vectors: :meth:`pack` converts a
    sequence of canonical ints into the backend's native representation
    (a plain list for Python, a ``uint64`` array for NumPy) and
    :meth:`unpack` converts back.  The list-in/list-out helpers in
    :mod:`repro.field.vector` pack and unpack around every call; hot
    loops that amortize (the NTT cores) pack once, run whole stages on
    the packed form, and unpack once at the end.
    """

    #: Short identifier used by the CLI and benchmark reports.
    name: str = "abstract"

    # -- lifecycle -----------------------------------------------------------

    @abc.abstractmethod
    def pack(self, field: "PrimeField", values: Sequence[int]) -> Any:
        """Convert a sequence of ints into the native vector form.

        Entries are reduced into canonical ``[0, p)`` form; inputs a
        plain-Python implementation would accept (negative, >= p) give
        the same results they would there.
        """

    @abc.abstractmethod
    def unpack(self, field: "PrimeField", data: Any) -> list[int]:
        """Convert a native vector back to a list of Python ints."""

    # -- element-wise ops on packed vectors ----------------------------------

    @abc.abstractmethod
    def add(self, field: "PrimeField", a: Any, b: Any) -> Any:
        """Element-wise ``a + b`` mod p."""

    @abc.abstractmethod
    def sub(self, field: "PrimeField", a: Any, b: Any) -> Any:
        """Element-wise ``a - b`` mod p."""

    @abc.abstractmethod
    def mul(self, field: "PrimeField", a: Any, b: Any) -> Any:
        """Element-wise (Hadamard) product mod p."""

    @abc.abstractmethod
    def neg(self, field: "PrimeField", a: Any) -> Any:
        """Element-wise negation mod p."""

    @abc.abstractmethod
    def scale(self, field: "PrimeField", a: Any, s: int) -> Any:
        """Multiply every entry by the scalar ``s``."""

    # -- reductions -----------------------------------------------------------

    @abc.abstractmethod
    def dot(self, field: "PrimeField", a: Any, b: Any) -> int:
        """Inner product mod p (returns a plain int)."""

    @abc.abstractmethod
    def sum(self, field: "PrimeField", a: Any) -> int:
        """Sum of all entries mod p (returns a plain int)."""

    # -- acceleration hooks ---------------------------------------------------

    def lane_ops(self, field: "PrimeField"):
        """A :class:`repro.field.simd.LaneOps` bundle, or ``None``.

        Non-``None`` means this backend runs whole NTT stages on packed
        arrays for ``field``; the radix-2 core uses this to transform
        without per-element Python work.  A lane backend returns lane
        ops for every field; only the base implementation (the Python
        backend) returns ``None``.
        """
        return None

    def describe(self) -> str:
        """One-line human-readable summary for ``repro info``."""
        return self.name


# ---------------------------------------------------------------------------
# pure-Python reference backend
# ---------------------------------------------------------------------------


class PythonBackend(FieldBackend):
    """The reference backend: list comprehensions over Python ints.

    This is the seed implementation of :mod:`repro.field.vector`,
    preserved verbatim; the vectorized backends are validated against
    it element for element.

    >>> from repro.field.presets import TEST_FIELD_97
    >>> PythonBackend().add(TEST_FIELD_97, [1, 96], [2, 3])
    [3, 2]
    """

    name = "python"

    def pack(self, field, values):
        return list(values)

    def unpack(self, field, data):
        return list(data)

    def add(self, field, a, b):
        p = field.modulus
        return [(x + y) % p for x, y in zip(a, b, strict=True)]

    def sub(self, field, a, b):
        p = field.modulus
        return [(x - y) % p for x, y in zip(a, b, strict=True)]

    def mul(self, field, a, b):
        p = field.modulus
        return [x * y % p for x, y in zip(a, b, strict=True)]

    def neg(self, field, a):
        p = field.modulus
        return [(p - x) % p for x in a]

    def scale(self, field, a, s):
        p = field.modulus
        return [x * s % p for x in a]

    def dot(self, field, a, b):
        p = field.modulus
        return sum(x * y for x, y in zip(a, b, strict=True)) % p

    def sum(self, field, a):
        return sum(a) % field.modulus

    def describe(self) -> str:
        return "python (reference: list comprehensions over Python ints)"


# ---------------------------------------------------------------------------
# NumPy backend: uint64 lanes and limb planes
# ---------------------------------------------------------------------------
#
# Three per-modulus regimes (chosen once and cached per field):
#
#   p < 2^32        direct:      a*b fits in 64 bits, one np.uint64 `%`.
#   p == Goldilocks special:     the repo's hand-written 2^64-2^32+1
#                                kernel (repro.field.goldilocks).
#   any other p     limb planes: lazy-carry CIOS Montgomery over (L, n)
#                                arrays (repro.field.multilimb).


class _Kernel:
    """uint64 lane arithmetic for one modulus p < 2^64."""

    def __init__(self, p: int):
        import numpy as np

        self.p = p
        self.p64 = np.uint64(p)
        self.np = np

    # Subclasses provide: add, sub, neg, mul, mul_scalar(a, s: int).

    def pack(self, values) -> "Any":
        """Pack ints into canonical uint64 lanes; None if not packable.

        Values in ``[0, 2^64)`` are accepted and canonicalized with one
        vectorized ``%``; anything unrepresentable (negative ints,
        >= 2^64) returns ``None`` so the caller can retry with every
        entry reduced mod p, the Python semantics for arbitrary ints.
        """
        np = self.np
        try:
            arr = np.array(values, dtype=np.uint64)
        except (OverflowError, TypeError, ValueError):
            return None
        if arr.size and bool((arr >= self.p64).any()):
            arr = arr % self.p64
        return arr

    def unpack(self, arr) -> list[int]:
        return arr.tolist()

    # Lane-shape hooks: NumPyBackend's tree sum indexes along the
    # *element* axis through these, so kernels whose packed
    # form is not 1-D (the limb-plane kernels, shape (L, n) with the
    # element axis last) reuse them unchanged.

    def lanes(self, arr) -> int:
        """Number of field elements in a packed array."""
        return arr.shape[-1]

    def lane_int(self, arr, i: int) -> int:
        """Element ``i`` of a packed array as a Python int."""
        return int(arr[i])


class _DirectKernel(_Kernel):
    """p < 2^32: products of canonical values fit in uint64."""

    def add(self, a, b):
        np = self.np
        s = a + b
        return np.where(s >= self.p64, s - self.p64, s)

    def sub(self, a, b):
        np = self.np
        return np.where(a >= b, a - b, a + self.p64 - b)

    def neg(self, a):
        np = self.np
        return np.where(a == 0, a, self.p64 - a)

    def mul(self, a, b):
        return (a * b) % self.p64

    def mul_scalar(self, a, s: int):
        return (a * self.np.uint64(s)) % self.p64


class _GoldilocksKernel(_Kernel):
    """p = 2^64 - 2^32 + 1: the repo's specialized reduction kernel."""

    def __init__(self, p: int):
        super().__init__(p)
        from repro.field import goldilocks as gl

        self._gl = gl

    def add(self, a, b):
        return self._gl.gl_add(a, b)

    def sub(self, a, b):
        return self._gl.gl_sub(a, b)

    def neg(self, a):
        return self._gl.gl_neg(a)

    def mul(self, a, b):
        return self._gl.gl_mul(a, b)

    def mul_scalar(self, a, s: int):
        return self._gl.gl_mul(a, self.np.uint64(s))


class NumPyBackend(FieldBackend):
    """Vectorized backend: a lane kernel for every prime field.

    Moduli below 2^32 and Goldilocks run on 1-D ``uint64`` lanes; every
    other modulus (33-bit primes through BN254-Fr and BLS12-381-Fr)
    runs on ``(L, n)`` limb planes, whose lane ops also carry the limb
    NTT core and the fused prover kernels.
    """

    name = "numpy"

    def __init__(self):
        import numpy  # noqa: F401 - fail fast if unavailable

        self._kernels: dict[int, _Kernel | _MultiLimbKernel] = {}
        self._python = PythonBackend()

    def _kernel(self, field) -> _Kernel | _MultiLimbKernel:
        p = field.modulus
        kernel = self._kernels.get(p)
        if kernel is None:
            if p < 1 << 32:
                kernel = _DirectKernel(p)
            elif p == (1 << 64) - (1 << 32) + 1:
                kernel = _GoldilocksKernel(p)
            else:
                kernel = _MultiLimbKernel(p)
            self._kernels[p] = kernel
        return kernel

    # -- lifecycle -----------------------------------------------------------

    def pack(self, field, values):
        kernel = self._kernel(field)
        arr = kernel.pack(values)
        if arr is None:  # unrepresentable entries: Python semantics
            arr = kernel.pack([v % kernel.p for v in values])
        return arr

    def unpack(self, field, data):
        kernel = self._kernel(field)
        if not isinstance(data, kernel.np.ndarray):
            return list(data)  # a plain result of the big-int path
        return kernel.unpack(data)

    def _one(self, field, a):
        """The field's kernel and ``a`` packed (if it was not already)."""
        kernel = self._kernel(field)
        if not isinstance(a, kernel.np.ndarray):
            a = self.pack(field, a)
        return kernel, a

    def _pair(self, field, a, b):
        """The field's kernel and both operands packed."""
        self._check_lengths(a, b)
        kernel, a = self._one(field, a)
        return kernel, a, self._one(field, b)[1]

    @staticmethod
    def _length(a) -> int:
        # Packed arrays keep the element axis last (len() of a 2-D
        # limb-plane array would count limbs, not elements).
        if hasattr(a, "ndim") and getattr(a, "ndim", 0) > 1:
            return a.shape[-1]
        return len(a)

    @classmethod
    def _check_lengths(cls, a, b) -> None:
        if cls._length(a) != cls._length(b):
            raise ValueError(
                f"vector length mismatch: {cls._length(a)} vs "
                f"{cls._length(b)}")

    def _plain_wide(self, field, *operands) -> bool:
        """Plain (unpacked) operands of a limb-plane field.

        Their element-wise ops, sums and dots run on the big-int path:
        packing a wide list into limb planes and unpacking the result
        costs far more than the arithmetic (at 4096 BN254-Fr values a
        ``vec_sub`` takes ~14x as long through the planes).  Packed
        arrays keep the lane route.
        """
        kernel = self._kernel(field)
        return isinstance(kernel, _MultiLimbKernel) and not any(
            isinstance(x, kernel.np.ndarray) for x in operands)

    # -- element-wise ---------------------------------------------------------

    def add(self, field, a, b):
        if self._plain_wide(field, a, b):
            self._check_lengths(a, b)
            return self._python.add(field, a, b)
        kernel, a, b = self._pair(field, a, b)
        return kernel.add(a, b)

    def sub(self, field, a, b):
        if self._plain_wide(field, a, b):
            self._check_lengths(a, b)
            return self._python.sub(field, a, b)
        kernel, a, b = self._pair(field, a, b)
        return kernel.sub(a, b)

    def mul(self, field, a, b):
        if self._plain_wide(field, a, b):
            self._check_lengths(a, b)
            return self._python.mul(field, a, b)
        kernel, a, b = self._pair(field, a, b)
        return kernel.mul(a, b)

    def neg(self, field, a):
        if self._plain_wide(field, a):
            return self._python.neg(field, a)
        kernel, a = self._one(field, a)
        return kernel.neg(a)

    def scale(self, field, a, s):
        if self._plain_wide(field, a):
            return self._python.scale(field, a, s % field.modulus)
        kernel, a = self._one(field, a)
        return kernel.mul_scalar(a, s % field.modulus)

    # -- reductions -----------------------------------------------------------

    def _tree_sum(self, kernel, arr) -> int:
        np = kernel.np
        while kernel.lanes(arr) > 1:
            if kernel.lanes(arr) % 2:
                arr = np.concatenate([arr, kernel.pack([0])], axis=-1)
            arr = kernel.add(arr[..., 0::2], arr[..., 1::2])
        return kernel.lane_int(arr, 0) if kernel.lanes(arr) else 0

    def dot(self, field, a, b):
        if self._plain_wide(field, a, b):
            self._check_lengths(a, b)
            return self._python.dot(field, a, b)
        kernel, a, b = self._pair(field, a, b)
        return self._tree_sum(kernel, kernel.mul(a, b))

    def sum(self, field, a):
        if self._plain_wide(field, a):
            return self._python.sum(field, a)
        kernel, a = self._one(field, a)
        return self._tree_sum(kernel, a)

    # -- acceleration hooks ---------------------------------------------------

    def lane_ops(self, field):
        from repro.field.simd import LaneOps

        kernel = self._kernel(field)
        hooks = {}
        if isinstance(kernel, _MultiLimbKernel):
            hooks = dict(
                unpack=kernel.unpack, pack_table=kernel.pack_table,
                ntt_core=kernel.ntt_core, ntt_lazy=kernel.ntt_lazy,
                fmt=kernel.schedule.fmt, mul_mont=kernel.mul_mont,
                to_table=kernel.to_table, from_table=kernel.from_table,
                fused_quotient=kernel.fused_quotient,
                gather_dot=kernel.gather_dot, words=kernel.words)
        return LaneOps(field=field, add=kernel.add, sub=kernel.sub,
                       mul=kernel.mul, scale=kernel.mul_scalar,
                       pack=functools.partial(self.pack, field), **hooks)

    def describe(self) -> str:
        return ("numpy (uint64 lanes below 2^32 and for Goldilocks; "
                "lazy-carry CIOS limb planes for every other modulus, "
                "33-bit primes through BN254-Fr/BLS12-381-Fr)")



# ---------------------------------------------------------------------------
# registry and selection
# ---------------------------------------------------------------------------

_BACKEND_NAMES = ("python", "numpy", "multilimb")
#: Names that select another backend's instance.
_ALIASES = {"multilimb": "numpy"}
_active: FieldBackend | None = None
_instances: dict[str, FieldBackend] = {}
_warned_fallback = False


def available_backends() -> dict[str, bool]:
    """Backend name -> whether it can be activated in this process.

    >>> available_backends()["python"]
    True
    """
    has_numpy = numpy_available()
    return {"python": True, "numpy": has_numpy, "multilimb": has_numpy}


def _instantiate(name: str) -> FieldBackend:
    name = _ALIASES.get(name, name)
    backend = _instances.get(name)
    if backend is None:
        backend = PythonBackend() if name == "python" else NumPyBackend()
        _instances[name] = backend
    return backend


def _resolve(name: str) -> FieldBackend:
    global _warned_fallback
    name = name.strip().lower()
    if name == "auto":
        name = "numpy" if numpy_available() else "python"
    if name not in _BACKEND_NAMES:
        raise FieldError(
            f"unknown backend {name!r}; choose from "
            f"{', '.join(_BACKEND_NAMES)} or 'auto'")
    if name in ("numpy", "multilimb") and not numpy_available():
        if not _warned_fallback:
            warnings.warn(
                f"repro: the {name!r} field backend was requested but numpy "
                "is not installed (pip install repro[fast]); falling back "
                "to the pure-Python backend", RuntimeWarning, stacklevel=3)
            _warned_fallback = True
        name = "python"
    return _instantiate(name)


def get_backend() -> FieldBackend:
    """The active backend (initialized from ``REPRO_BACKEND``, or auto)."""
    global _active
    if _active is None:
        _active = _resolve(os.environ.get(BACKEND_ENV_VAR, "auto"))
    return _active


def sized_lane_ops(field: "PrimeField", lanes: int):
    """The active backend's lane ops for a ``lanes``-element job, or None.

    The one crossover every lane route shares: ``None`` below
    :data:`LANE_MIN_SIZE` lanes or when the active backend is the
    Python one; the caller then runs its scalar code.
    """
    if lanes < LANE_MIN_SIZE:
        return None
    return get_backend().lane_ops(field)


def set_backend(name: str) -> FieldBackend:
    """Activate a backend by name; returns the instance now active.

    ``name`` is ``python``, ``numpy``, ``multilimb`` (another name
    for ``numpy``: the same instance) or ``auto`` (``numpy`` when
    NumPy is importable, else ``python``).  Requesting ``numpy`` or
    ``multilimb`` without NumPy installed warns once and selects the
    Python backend instead of failing.
    """
    global _active
    _active = _resolve(name)
    return _active


class use_backend:
    """Context manager: temporarily activate a backend.

    >>> with use_backend("python") as backend:
    ...     backend.name
    'python'
    """

    def __init__(self, name: str):
        self._name = name
        self._previous: FieldBackend | None = None

    def __enter__(self) -> FieldBackend:
        global _active
        self._previous = get_backend()
        _active = _resolve(self._name)
        return _active

    def __exit__(self, *exc) -> None:
        global _active
        _active = self._previous
