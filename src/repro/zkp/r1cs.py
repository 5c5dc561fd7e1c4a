"""Rank-1 Constraint Systems.

An R1CS instance is a list of constraints ``<a_i, w> * <b_i, w> =
<c_i, w>`` over a witness vector ``w`` whose slot 0 is the constant 1,
followed by the public inputs, followed by private wires.  This is the
circuit format Groth16 consumes and the unit the end-to-end benchmark
sizes its workloads in (one constraint = one domain point).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import isqrt
from typing import Any, Mapping, NamedTuple, Sequence

from repro.errors import CircuitError
from repro.field.packed import gather_dot, pack_coefficients, pack_values
from repro.field.prime_field import PrimeField

__all__ = ["LinearCombination", "Constraint", "R1CS", "CompiledR1CS"]

#: Sparse linear combination: wire index -> coefficient.
LinearCombination = Mapping[int, int]


@dataclass(frozen=True)
class Constraint:
    """One rank-1 constraint ``<a, w> * <b, w> = <c, w>``."""

    a: tuple[tuple[int, int], ...]
    b: tuple[tuple[int, int], ...]
    c: tuple[tuple[int, int], ...]

    @classmethod
    def make(cls, a: LinearCombination, b: LinearCombination,
             c: LinearCombination) -> "Constraint":
        """Build a constraint from sparse dict combinations."""
        def freeze(lc: LinearCombination) -> tuple[tuple[int, int], ...]:
            return tuple(sorted((int(k), int(v)) for k, v in lc.items()))
        return cls(a=freeze(a), b=freeze(b), c=freeze(c))


class R1CS:
    """A constraint system with witness allocation helpers."""

    def __init__(self, field: PrimeField, num_public: int = 0):
        if num_public < 0:
            raise CircuitError("num_public cannot be negative")
        self.field = field
        self.num_public = num_public
        # wire 0 is the constant 1; public wires are 1..num_public.
        self.num_wires = 1 + num_public
        self.constraints: list[Constraint] = []

    def __repr__(self) -> str:
        return (f"R1CS({len(self.constraints)} constraints, "
                f"{self.num_wires} wires, {self.num_public} public, "
                f"over {self.field.name})")

    # -- construction ------------------------------------------------------------

    def new_wire(self) -> int:
        """Allocate a fresh private wire; returns its index."""
        index = self.num_wires
        self.num_wires += 1
        return index

    def add_constraint(self, a: LinearCombination, b: LinearCombination,
                       c: LinearCombination) -> None:
        """Append ``<a,w> * <b,w> = <c,w>``; validates wire indices."""
        for lc in (a, b, c):
            for wire in lc:
                if not 0 <= wire < self.num_wires:
                    raise CircuitError(
                        f"constraint references wire {wire}; only "
                        f"{self.num_wires} allocated")
        self.constraints.append(Constraint.make(a, b, c))

    def constrain_mul(self, x: int, y: int) -> int:
        """Add ``z = x * y`` with a fresh output wire; returns z."""
        z = self.new_wire()
        self.add_constraint({x: 1}, {y: 1}, {z: 1})
        return z

    def constrain_square(self, x: int) -> int:
        """Add ``z = x^2``; returns z."""
        return self.constrain_mul(x, x)

    def constrain_equal(self, x: int, y: int) -> None:
        """Add ``x * 1 = y``."""
        self.add_constraint({x: 1}, {0: 1}, {y: 1})

    # -- evaluation -----------------------------------------------------------------

    def eval_lc(self, lc: Sequence[tuple[int, int]],
                witness: Sequence[int]) -> int:
        """Evaluate a frozen linear combination against a witness."""
        p = self.field.modulus
        return sum(coeff * witness[wire] for wire, coeff in lc) % p

    def evaluate_rows(self, witness: Sequence[int]) -> tuple[
            list[int], list[int], list[int]]:
        """``<a_i,w>``, ``<b_i,w>``, ``<c_i,w>`` for every constraint i.

        The one list row evaluator: :meth:`is_satisfied` checks its
        rows and :meth:`repro.zkp.qap.QAP.witness_rows` pads them to the
        domain.  Rows are canonical (reduced mod p).
        """
        self.check_witness_shape(witness)
        eval_lc = self.eval_lc
        a_rows, b_rows, c_rows = [], [], []
        for constraint in self.constraints:
            a_rows.append(eval_lc(constraint.a, witness))
            b_rows.append(eval_lc(constraint.b, witness))
            c_rows.append(eval_lc(constraint.c, witness))
        return a_rows, b_rows, c_rows

    def rows_satisfy(self, a_rows: Sequence[int], b_rows: Sequence[int],
                     c_rows: Sequence[int]) -> bool:
        """Whether canonical rows meet ``a_i * b_i = c_i`` at every i."""
        p = self.field.modulus
        return all(a * b % p == c for a, b, c in zip(a_rows, b_rows, c_rows))

    def is_satisfied(self, witness: Sequence[int]) -> bool:
        """Check every constraint against a full witness vector."""
        return self.rows_satisfy(*self.evaluate_rows(witness))

    def check_witness_shape(self, witness: Sequence[int]) -> None:
        if len(witness) != self.num_wires:
            raise CircuitError(
                f"witness has {len(witness)} entries, system has "
                f"{self.num_wires} wires")
        if witness[0] % self.field.modulus != 1:
            raise CircuitError("witness slot 0 must be the constant 1")

    def public_inputs(self, witness: Sequence[int]) -> list[int]:
        """The public slice of a witness (excluding the constant 1)."""
        self.check_witness_shape(witness)
        return list(witness[1:1 + self.num_public])


# -- compiled rows ------------------------------------------------------------

class _Matrix(NamedTuple):
    """One compiled matrix: ``(idx, table)`` slots (see ``gather_dot``)."""

    slots: list[tuple]
    tail: list[tuple]     #: one spilled piece per lane (plus an empty one)
    fold: list[tuple]     #: gathers each long row's pieces
    long_rows: Any        #: the lane of each long row, in fold order


def _slots(ops, rows: Sequence[Sequence[tuple[int, int]]], lanes: int,
           zero: int) -> list[tuple]:
    """Slot-major ("ELL") form of ``rows`` over ``lanes`` output lanes.

    Slot j holds the j-th term of every row; a row with fewer terms (and
    every lane past ``len(rows)``) points at index ``zero``, whose value
    is 0, with coefficient 1.  Coefficients are reduced mod p; a slot
    whose coefficients are all 1 keeps no table.
    """
    import numpy as np

    p = ops.field.modulus
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    terms = list(chain.from_iterable(rows))
    wires = np.fromiter((wire for wire, _ in terms), dtype=np.intp,
                        count=len(terms))
    coeffs = np.array([coeff % p for _, coeff in terms], dtype=object)
    lane = np.repeat(np.arange(len(rows)), lengths)
    slot = np.arange(len(terms)) - np.repeat(np.cumsum(lengths) - lengths,
                                             lengths)
    slots = []
    for j in range(max(1, lengths.max(initial=0))):
        here = slot == j
        idx = np.full(lanes, zero, dtype=np.intp)
        idx[lane[here]] = wires[here]
        table = np.ones(lanes, dtype=object)
        table[lane[here]] = coeffs[here]
        unit = bool((table == 1).all())
        slots.append((idx, None if unit
                      else pack_coefficients(ops, table.tolist())))
    return slots


def _slot_width(lengths: Sequence[int], lanes: int) -> int:
    """Slots per matrix: enough that at most half the lanes spill.

    One more slot costs a pass over every lane; a spilled term costs a
    lane of the tail.  So widen while more than ``lanes // 2`` rows are
    longer than the width.
    """
    ranked = sorted(lengths, reverse=True) + [0] * (lanes - len(lengths))
    return max(1, ranked[lanes // 2])


def _compile(ops, rows: Sequence[Sequence[tuple[int, int]]], lanes: int,
             zero: int) -> _Matrix:
    """Compile one matrix; rows longer than the slot width spill.

    A long row keeps its first ``width`` terms in the slots.  The rest
    is cut into pieces of ``depth ~ sqrt(longest spill)`` terms; the
    tail evaluates one piece per lane (plus one empty piece, the fold's
    zero), and the fold sums each long row's pieces, so a row of e
    spilled terms costs about ``2 sqrt(e)`` slot passes over few lanes.
    """
    import numpy as np

    width = _slot_width([len(row) for row in rows], lanes)
    slots = _slots(ops, [row[:width] for row in rows], lanes, zero)
    long_rows = [i for i, row in enumerate(rows) if len(row) > width]
    if not long_rows:
        return _Matrix(slots, [], [], None)
    spills = [rows[i][width:] for i in long_rows]
    depth = isqrt(max(len(spill) for spill in spills) - 1) + 1
    pieces: list[Sequence[tuple[int, int]]] = []
    owned: list[list[tuple[int, int]]] = []
    for spill in spills:
        start = len(pieces)
        pieces += [spill[k:k + depth] for k in range(0, len(spill), depth)]
        owned.append([(piece, 1) for piece in range(start, len(pieces))])
    empty = len(pieces)
    return _Matrix(
        slots,
        _slots(ops, pieces, empty + 1, zero),
        _slots(ops, owned, len(long_rows), empty),
        np.array(long_rows, dtype=np.intp))


def _evaluate(ops, x, matrix: _Matrix):
    """The matrix times the packed witness ``x``: canonical packed rows."""
    rows = gather_dot(ops, x, matrix.slots)
    if matrix.tail:
        pieces = gather_dot(ops, x, matrix.tail)
        folded = gather_dot(ops, pieces, matrix.fold)
        lanes = matrix.long_rows
        rows[..., lanes] = ops.add(rows[..., lanes], folded)
    return rows


class CompiledR1CS:
    """The A, B and C matrices of an :class:`R1CS`, compiled for lane ops.

    Built once for one lane format and domain size n (``docs/FIELDS.md``,
    "compiled R1CS rows").  Each matrix is slot-major: slot j holds the
    j-th term of every row as an index array over the n lanes and a
    coefficient table packed by :func:`pack_coefficients`; a missing
    term points at a zero wire appended to the packed witness, and an
    all-ones slot keeps no table.  :meth:`rows` then evaluates A·w, B·w
    and C·w from one witness pack, with no per-term Python loop.

    The compiled form is a snapshot: it is valid for the constraint
    count and wire count it was built from (callers key their memo on
    those and the lane format), and ``lanes`` must cover the
    constraint count.
    """

    def __init__(self, r1cs: R1CS, ops, lanes: int):
        self.matrices = tuple(
            _compile(ops, [getattr(c, part) for c in r1cs.constraints],
                     lanes, zero=r1cs.num_wires)
            for part in ("a", "b", "c"))

    def rows(self, ops, witness: Sequence[int]) -> tuple:
        """Packed, canonical ``(A·w, B·w, C·w)`` over the n lanes.

        The witness is packed once (:func:`pack_values`, counted), with
        the zero wire appended; ``witness`` must already have the
        system's shape.
        """
        x = pack_values(ops, [*witness, 0])
        return tuple(_evaluate(ops, x, matrix) for matrix in self.matrices)
