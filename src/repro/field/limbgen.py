"""Limb-schedule codegen for the multi-limb Montgomery backend.

A NumPy ``uint64`` lane cannot hold the 128-bit product of two 64-bit
operands, so fields wider than 64 bits are vectorized by splitting each
element into *sub-32-bit limbs* spread across uint64 lanes and running
a lazy-carry CIOS Montgomery multiply over the limb planes.  How many
limbs, how wide, and how much carry headroom remains is a pure function
of the modulus — this module derives that **limb schedule** once, as
data, so the kernel in :mod:`repro.field.multilimb`, the docs in
``docs/FIELDS.md``, and ``repro info`` all describe the same numbers.

The module is deliberately stdlib-only (no numpy import): the schedule
is inspectable from ``repro info`` even on an interpreter without the
optional dependency.

>>> sched = generate_schedule(2**255 - 19)
>>> sched.limb_bits, sched.limbs
(29, 9)
>>> sched.r == 1 << (29 * 9)
True
>>> (sched.n_prime * (2**255 - 19)) % sched.base == sched.base - 1
True
"""

from __future__ import annotations

import dataclasses
from typing import Callable

__all__ = [
    "LimbSchedule", "generate_schedule", "pick_limb_bits",
    "describe_schedule", "emit_montmul_source", "compile_montmul",
]


def pick_limb_bits(p: int) -> tuple[int, int]:
    """Choose ``(limb_bits, limbs)`` for modulus ``p``.

    The kernel accumulates lazily: during one CIOS round an accumulator
    lane absorbs up to ``2L + 2`` products of ``limb_bits``-wide values
    (with one extra bit of input laziness) before any carry is
    propagated, so the widest safe limb is the largest ``k`` with

        2k + 1 + ceil_log2(2L + 2) <= 64

    while still covering the modulus with headroom.  The radix
    ``R = 2^(k*L)`` (``L`` the fewest limbs that hold ``p``) must
    exceed ``4p`` (``k*L > p.bit_length() + 1``); the semi-lazy
    butterfly chain, whose values reach ``(2s+1)p`` after ``s``
    stages, must fit the field's deepest transform: with ``2^v`` the
    largest power of two dividing ``p - 1``, ``(2v+1)p < R``; and the
    Barrett exit must land every value below ``R`` under ``2p``
    (:func:`_barrett_exit_fits`).

    >>> pick_limb_bits(
    ...     21888242871839275222246405745257275088548364400416034343698204186575808495617)
    (29, 9)
    """
    bits = p.bit_length()
    two_adicity = ((p - 1) & (1 - p)).bit_length() - 1
    for k in range(32, 8, -1):
        limbs = -(-bits // k)
        need = 2 * k + 1 + (2 * limbs + 2).bit_length()
        r = 1 << (k * limbs)
        if (need <= 64 and k * limbs > bits + 1
                and (2 * two_adicity + 1) * p < r
                and _barrett_exit_fits(p, r, k * (limbs - 2))):
            return k, limbs
    raise ValueError(f"no viable limb schedule for a "
                     f"{p.bit_length()}-bit modulus")


def _barrett_exit_fits(p: int, r: int, shift: int) -> bool:
    """Does the kernel's Barrett exit take every ``x < R`` below ``2p``?

    The exit estimates ``q = (x >> shift) // (p_top + 1)`` from the top
    two limbs, ``p_top = p >> shift``.  ``q*p <= x`` and
    ``x - q*p < R/(p_top + 1) + p + 2^shift``, so one conditional
    subtraction lands canonical when ``R/(p_top + 1) + 2^shift <= p``.
    A one-limb schedule has no such exit (the kernel needs two limbs).
    """
    if shift < 0:
        return True
    return -(-r // ((p >> shift) + 1)) + (1 << shift) <= p


@dataclasses.dataclass(frozen=True)
class LimbSchedule:
    """Everything the multi-limb CIOS kernel needs, as plain integers.

    The fields mirror :class:`repro.field.montgomery.MontgomeryContext`
    (same ``n' = -p^-1 mod base`` and ``r2 = R^2 mod p`` definitions)
    but at limb granularity ``base = 2^limb_bits`` instead of ``2^64``.
    """

    modulus: int          #: the prime p
    limb_bits: int        #: k — bits per limb (sub-32 by construction)
    limbs: int            #: L — number of limb planes per element
    base: int             #: 2^k, the limb radix
    mask: int             #: 2^k - 1
    r: int                #: R = 2^(k*L), the Montgomery radix
    r2: int               #: R^2 mod p, for entering Montgomery form
    n_prime: int          #: -p^-1 mod base (per-round CIOS multiplier)
    p_limbs: tuple[int, ...]      #: p split into L limbs, little-endian
    words: int            #: 64-bit words per element for byte packing
    headroom_bits: int    #: unused accumulator bits at the lazy bound
    max_lazy_stages: int  #: butterfly stages before (2s+1)p reaches R

    @property
    def fmt(self) -> str:
        """Lane-format tag, e.g. ``limb29x9`` (keys twiddle caches)."""
        return f"limb{self.limb_bits}x{self.limbs}"

    @property
    def lazy_sum_terms(self) -> int:
        """Values below ``2p`` a lazy slot sum may add before reducing.

        Their sum stays below ``R``, which the one carry pass and the
        Barrett exit that follow require: ``R // (2p)``, 84 on BN254-Fr
        and 35 on BLS12-381-Fr.
        """
        return self.r // (2 * self.modulus)


def generate_schedule(p: int) -> LimbSchedule:
    """Derive the full limb schedule for an odd modulus ``p``.

    >>> s = generate_schedule(
    ...     52435875175126190479447740508185965837690552500527637822603658699938581184513)
    >>> s.fmt
    'limb29x9'
    >>> s.r > 4 * s.modulus
    True
    >>> sum(l << (29 * i) for i, l in enumerate(s.p_limbs)) == s.modulus
    True
    >>> s.max_lazy_stages >= 32
    True
    """
    if p % 2 == 0 or p < 3:
        raise ValueError("multi-limb schedules require an odd modulus")
    k, limbs = pick_limb_bits(p)
    base = 1 << k
    r = 1 << (k * limbs)
    # Worst lazy accumulator: 2L products of (2^(k+1))(2^k) plus carry
    # slack — the same bound pick_limb_bits solved for.
    acc_bits = 2 * k + 1 + (2 * limbs + 2).bit_length()
    # The semi-lazy butterfly chain grows values by 2p per stage
    # (B_s = (2s+1)p), so the deepest transform before overflow is
    # the largest s with (2s+1)p < R.
    max_stages = (r // p - 1) // 2
    return LimbSchedule(
        modulus=p,
        limb_bits=k,
        limbs=limbs,
        base=base,
        mask=base - 1,
        r=r,
        r2=r * r % p,
        n_prime=(-pow(p, -1, base)) % base,
        p_limbs=tuple((p >> (k * i)) & (base - 1) for i in range(limbs)),
        words=(k * limbs + 63) // 64,
        headroom_bits=64 - acc_bits,
        max_lazy_stages=max_stages,
    )


def describe_schedule(p: int, name: str | None = None) -> str:
    """Human-readable schedule summary (used by ``repro info``).

    >>> print(describe_schedule(2**255 - 19, "ed25519").splitlines()[0])
    ed25519: 255-bit modulus -> 9 limbs x 29 bits (format limb29x9)
    """
    s = generate_schedule(p)
    label = name or f"p={p}"
    lines = [
        f"{label}: {p.bit_length()}-bit modulus -> "
        f"{s.limbs} limbs x {s.limb_bits} bits (format {s.fmt})",
        f"  R = 2^{s.limb_bits * s.limbs}, n' = {s.n_prime:#x}, "
        f"{s.words} packed 64-bit words/element",
        f"  lazy headroom {s.headroom_bits} bits; "
        f"butterfly chain safe to {s.max_lazy_stages} stages "
        f"(2^{s.max_lazy_stages} points); "
        f"exit: Barrett + 2 conditional subtracts",
        f"  slot sums reduce once per {s.lazy_sum_terms} products",
    ]
    return "\n".join(lines)


def emit_montmul_source(schedule: LimbSchedule,
                        func_name: str = "montmul_lazy") -> str:
    """Emit unrolled numpy source for this schedule's CIOS multiply.

    The emitted function is the per-field specialization of the lazy
    CIOS loop: one round per limb, constants baked in.  ``a`` may carry
    lazy limbs (``<= 2^k + 2^(k-22)``-ish); ``b`` must be canonical
    (this is always a twiddle/constant table).  The result is the view
    ``t[L:2L]`` of the scratch — value ``< 2p`` with lazy limbs — valid
    until the next call on the same scratch.

    >>> src = emit_montmul_source(generate_schedule(2**255 - 19))
    >>> src.count("def montmul_lazy")
    1
    >>> src.count("np.right_shift") == 9
    True
    """
    L = schedule.limbs
    lines = [
        f"def {func_name}(np, p_col, a, b, t, prod, m):",
        f'    """Lazy CIOS for {schedule.fmt} '
        f"(p of {schedule.modulus.bit_length()} bits); "
        'returns the view t[L:2L]."""',
        f"    mask = np.uint64({schedule.mask:#x})",
        f"    sh = np.uint64({schedule.limb_bits})",
        f"    nprime = np.uint64({schedule.n_prime:#x})",
        "    # round 0: write the first partial product directly.  The",
        "    # result's top row is never accumulated into (the lazy",
        "    # value fits below it) but callers may normalize the",
        "    # returned view in place, so it alone needs re-zeroing.",
        "    np.multiply(a, b[0], out=t[:%d])" % L,
        "    t[%d].fill(0)" % (2 * L - 1),
        "    np.multiply(t[0], nprime, out=m)",
        "    np.bitwise_and(m, mask, out=m)",
        "    np.multiply(p_col, m, out=prod)",
        "    t[:%d] += prod" % L,
        "    np.right_shift(t[0], sh, out=m)",
        "    t[1] += m",
    ]
    for i in range(1, L):
        # Row t[i+L-1] is first touched in round i: write it instead of
        # accumulating into it, so the scratch never needs a zero fill
        # (a full-width memset per call, pure memory traffic).
        lines += [
            f"    # round {i}",
            f"    np.multiply(a, b[{i}], out=prod)",
            f"    t[{i}:{i + L - 1}] += prod[:{L - 1}]",
            f"    np.copyto(t[{i + L - 1}], prod[{L - 1}])",
            f"    np.multiply(t[{i}], nprime, out=m)",
            "    np.bitwise_and(m, mask, out=m)",
            "    np.multiply(p_col, m, out=prod)",
            f"    t[{i}:{i + L}] += prod",
            f"    np.right_shift(t[{i}], sh, out=m)",
            f"    t[{i + 1}] += m",
        ]
    lines.append(f"    return t[{L}:{2 * L}]")
    return "\n".join(lines) + "\n"


def compile_montmul(schedule: LimbSchedule) -> Callable:
    """Compile :func:`emit_montmul_source` and return the function.

    The kernel calls the compiled specialization; ``repro info`` and
    the docs show the emitted source, so what runs and what is
    documented cannot drift apart.
    """
    source = emit_montmul_source(schedule)
    namespace: dict = {}
    exec(compile(source, f"<limbgen:{schedule.fmt}>", "exec"), namespace)
    return namespace["montmul_lazy"]
