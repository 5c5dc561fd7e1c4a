"""Multi-limb vectorized kernels for fields wider than 64 bits.

``uint64`` lanes cannot hold BN254-Fr and BLS12-381-Fr (254/255 bits)
— exactly the fields the source paper's ZKP workloads care about.  The
``numpy`` backend (:class:`repro.field.backend.NumPyBackend`) runs them
on the kernel in this module instead: an element of a big field is
split into sub-32-bit limbs spread across ``uint64`` *limb planes*
(shape ``(L, n)``, element axis last), and all arithmetic runs as
whole-plane numpy ufuncs:

* multiplication is lazy-carry CIOS Montgomery multiplication over the
  limb planes (the per-field schedule — limb width, limb count, ``n'``,
  carry headroom — comes from :mod:`repro.field.limbgen`, and the
  inner loop is the unrolled source that module emits);
* the NTT runs a DIT Stockham schedule directly on the packed planes
  with *semi-lazy* butterflies: values grow by ``2p`` per stage
  (``B_s = (2s+1)p < R``) and are reduced exactly once at the end,
  by a two-limb Barrett step plus a conditional subtraction, or by
  one montmul against an *exit operand* (a Montgomery-form column or
  table) that also applies the scaling following the transform;
* data stays in the raw residue domain — only the twiddle tables are
  premultiplied by ``R`` (``montmul(x, tw*R) = x*tw``), so transforms
  pay no Montgomery domain entry/exit.

``NumPyBackend`` picks this kernel for every modulus at or above 2^32
except Goldilocks (33- to 64-bit primes get two or three limbs); the
backend name ``multilimb`` is kept as another name for
``numpy``.  See ``docs/FIELDS.md`` for the limb layout and a worked
CIOS example.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import FieldError
from repro.field.limbgen import LimbSchedule, compile_montmul, generate_schedule

__all__: list[str] = []

#: Stages whose butterfly groups span at least this many lanes reduce
#: their unit-twiddle group 0 with a Barrett step instead of a montmul
#: (:meth:`_MultiLimbKernel._twiddle_groups`): the first three montmul
#: stages of a 2^13-lane transform.  A montmul of a few thousand lanes
#: costs mostly its ~90 numpy calls, so the lanes group 0 saves pay for
#: the Barrett step and the row copy only in these wide stages
#: (1-2% of a 2^12-2^13-lane transform on a 2-vCPU Xeon; at group
#: spans of 64 lanes a 2^12-point transform ran 11% slower).
GROUP0_MIN_STRIDE = 512


class _MultiLimbKernel:
    """Limb-plane arithmetic for one odd modulus p >= 2^32.

    Mirrors the duck-typed interface of ``backend._Kernel`` (pack,
    unpack, add/sub/neg/mul/mul_scalar plus the lane-shape hooks) but
    over ``(L, n)`` limb-plane arrays instead of 1-D uint64 lanes.
    All public ops take and return *canonical* packed arrays: limbs
    < 2^k, value < p.  Laziness is internal to the NTT core.
    """

    def __init__(self, p: int):
        import numpy as np

        self.np = np
        self.p = p
        self.schedule: LimbSchedule = generate_schedule(p)
        s = self.schedule
        k, L = s.limb_bits, s.limbs
        self.k, self.L, self.W = k, L, s.words
        #: 64-bit words a canonical value needs (``ceil(bits(p) / 64)``);
        #: :meth:`words` lays each value out in this many.
        self.V = (p.bit_length() + 63) // 64
        self.mask = np.uint64(s.mask)
        self.sh = np.uint64(k)
        self.m64 = np.int64(s.mask)
        self.sh64 = np.int64(k)
        self.p_col = np.array([[limb] for limb in s.p_limbs],
                              dtype=np.uint64)
        self.twop_col = np.array(
            [[(2 * p >> (k * i)) & s.mask] for i in range(L)],
            dtype=np.uint64)
        self.twop_i64 = tuple(np.int64(int(v[0])) for v in self.twop_col)
        self.r2_col = self._column(s.r2)
        self.one_col = self._column(1)
        # Barrett exit: the top two limbs of x against the top chunk of
        # p.  With s = k(L-2) and p_top = p >> s, the estimate
        # q = (x >> s) // (p_top + 1) satisfies q*p <= x (q never
        # overshoots: floor(x/2^s)/(p_top+1) * p <= x because
        # p < (p_top+1) 2^s) and
        #   x - q*p < x/(p_top+1) + p(1 + 1/(p_top+1)) < 2p
        # for any x < R, since p_top has ~50 bits and x/(p_top+1) is
        # then ~2^211 << p.  ``pick_limb_bits`` admits only schedules
        # that keep x - q*p < 2p (``limbgen._barrett_exit_fits``), so
        # the two- and three-limb schedules of 33..64-bit primes hold
        # it too.  One conditional subtraction lands canonical.
        self.p_top1 = np.uint64((p >> (k * (L - 2))) + 1)
        self._montmul = compile_montmul(s)
        #: CIOS scratch layout, name -> (rows, dtype): see :meth:`scratch`.
        self._scratch_rows = dict(
            t=(2 * L + 2, np.uint64), prod=(L, np.uint64), m=(1, np.uint64),
            b=(L, np.uint64), tw=(L, np.uint64), c0=(1, np.int64),
            c1=(1, np.int64))
        self._scratch: dict[str, Any] = {}
        self._scratch_lanes = 0
        self._views: dict[int, dict[str, Any]] = {}
        self._stage_tables: dict = {}

    # -- scratch and helpers -------------------------------------------------

    def _column(self, v: int):
        """A canonical ``(L, 1)`` limb column for one value in [0, p)."""
        np, k = self.np, self.k
        return np.array([[(v >> (k * i)) & self.schedule.mask]
                         for i in range(self.L)], dtype=np.uint64)

    def scratch(self, n: int) -> dict:
        """CIOS scratch views for lane count n.

        One buffer set, sized for the largest lane count seen so far,
        backs every count: a smaller count gets contiguous views of its
        leading elements (cached per count until the buffers grow).  A
        transform's stages (n/2 lanes) alternate with its exit and the
        pointwise kernels around it (n lanes), and a serve stream mixes
        many lane counts, so per-count buffers reallocated on nearly
        every switch.  Views of different counts alias: nothing may
        hold a scratch view (a :meth:`montmul_lazy` result above all)
        across a call that takes scratch at another count.
        """
        views = self._views.get(n)
        if views is None:
            if n > self._scratch_lanes:
                np = self.np
                self._scratch = {
                    name: np.empty(rows * n, dtype=dtype)
                    for name, (rows, dtype) in self._scratch_rows.items()}
                self._scratch_lanes = n
                self._views.clear()
            views = self._views[n] = {
                name: self._scratch[name][:rows * n].reshape(rows, n)
                if rows > 1 else self._scratch[name][:n]
                for name, (rows, _) in self._scratch_rows.items()}
        return views

    def montmul_lazy(self, a, b, sc):
        """CIOS montmul: a lazy-normed limbs, b canonical (a table).

        Returns the scratch view ``t[L:2L]``: value < 2p, lazy limbs.
        The view is only valid until the next call on the same scratch.
        """
        return self._montmul(self.np, self.p_col, a, b,
                             sc["t"], sc["prod"], sc["m"])

    def norm_seq(self, s) -> None:
        """Sequential unsigned carry chain -> canonical limbs (< R).

        This is the only unsigned normalization offered: a single
        *vectorized* carry pass looks tempting between montmuls, but
        it leaves limbs as large as ``2^k + (max limb >> k)`` —
        ~``2^34`` after a lazy montmul — and feeding those back into
        the CIOS accumulator overflows uint64 (the accumulator peaks
        within a bit of ``2^64`` even with canonical inputs).  The
        sequential chain restores ``< 2^k`` limbs for the same number
        of memory touches.
        """
        for j in range(self.L - 1):
            s[j + 1] += s[j] >> self.sh
            s[j] &= self.mask

    def norm_seq_signed(self, s) -> None:
        """Sequential signed carry chain (int64 view) -> canonical limbs.

        Needed whenever individual limbs may have gone negative (the
        ``a + 2p - b`` path): a vectorized pass would misinterpret the
        wrapped uint64 values.
        """
        sv = s.view(self.np.int64)
        for j in range(self.L - 1):
            sv[j + 1] += sv[j] >> self.sh64
            sv[j] &= self.m64

    def butterfly_stage(self, a, u, y0, y1, c0, c1) -> None:
        """Fused butterfly + folding carry chain for one DIT stage.

        Writes ``y0 = a + u`` and ``y1 = a - u + 2p`` limb-row by
        limb-row: the subtraction wraps below zero limb-wise (the
        uint64 bit patterns are the right two's-complement values),
        the canonical limbs of ``2p`` fold into the carry chain, and
        both halves' carries propagate in the same pass — each output
        row is produced and re-canonicalized while still cache-hot
        instead of being written by the butterfly and re-read by a
        separate normalization sweep.  Both halves finish with
        canonical limbs (< ``2^k``), ready for the next stage's
        montmul, and each value grows by at most ``2p``.  ``c0``/``c1``
        are per-half carry scratch shaped like one limb row.
        """
        np, L = self.np, self.L
        tw, sh64, m64 = self.twop_i64, self.sh64, self.m64
        v0 = y0.view(np.int64)
        v1 = y1.view(np.int64)
        for j in range(L):
            np.add(a[j], u[j], out=y0[j])
            np.subtract(a[j], u[j], out=y1[j])
            r0, r1 = v0[j], v1[j]
            r1 += tw[j]
            if j:
                r0 += c0
                r1 += c1
            if j < L - 1:
                np.right_shift(r0, sh64, out=c0)
                r0 &= m64
                np.right_shift(r1, sh64, out=c1)
                r1 &= m64

    def _cond_sub(self, u, work=None):
        """One conditional subtract of p: canonical limbs in and out.

        Computes ``u - p`` limb-wise (two's-complement wraparound),
        re-canonicalizes with a signed chain, and keeps the subtracted
        lanes whose value stayed non-negative.  Returns a fresh array
        (``np.where``), so callers may hand back scratch views safely.
        ``work`` optionally donates the difference buffer.
        """
        np, L = self.np, self.L
        if work is not None:
            d = work[:L]
        else:
            d = np.empty((L, u.shape[-1]), dtype=np.uint64)
        np.subtract(u[:L], self.p_col, out=d)
        dv = d.view(np.int64)
        for j in range(L - 1):
            dv[j + 1] += dv[j] >> self.sh64
            dv[j] &= self.m64
        return np.where(dv[L - 1] >= 0, d, u[:L])

    def reduce_canonical(self, arr, work=None):
        """Canonical limbs, any value < R -> canonical value < p.

        Barrett estimate from the top two limbs, one signed carry
        chain, one conditional subtraction (see ``p_top1`` above for
        why one always suffices).  In place on ``arr``; returns a
        fresh array.  ``work``, if given, is an equally-shaped scratch
        buffer that spares an allocation for the ``q*p`` product.
        """
        np, L = self.np, self.L
        x_hi = (arr[L - 1] << self.sh) | arr[L - 2]
        q = x_hi // self.p_top1
        if work is not None:
            np.multiply(self.p_col, q, out=work[:L])
            arr -= work[:L]
        else:
            arr -= self.p_col * q
        self.norm_seq_signed(arr)
        return self._cond_sub(arr, work=work)

    # -- pack / unpack -------------------------------------------------------

    def pack(self, values: Sequence[int]):
        """Pack ints into canonical ``(L, n)`` limb planes; None if not.

        The fast path serializes each value with ``int.to_bytes`` and
        slices limbs out of the little-endian words wholesale.  Values
        outside ``[0, 2^(64W))`` cannot serialize (``OverflowError``)
        and values at or above ``R`` would silently truncate, so both
        return ``None`` — the caller retries with ``[v % p, ...]``,
        matching the uint64 kernels' fallback protocol.  Values in
        ``[p, R)`` are accepted and Barrett-reduced vectorized.  A
        modulus below 2^64 packs through one ``uint64`` word per element
        instead (:meth:`_pack_word`).
        """
        if self.p < 1 << 64:
            return self._pack_word(values)
        np, k, L, W = self.np, self.k, self.L, self.W
        step = W * 8
        try:
            buf = b"".join(v.to_bytes(step, "little") for v in values)
        except (OverflowError, AttributeError, TypeError):
            return None
        n = len(buf) // step
        words = np.frombuffer(buf, dtype="<u8").reshape(n, W)
        spare = 64 * W - k * L  # bits above R in the serialized words
        if spare and n and bool((words[:, W - 1] >> np.uint64(
                64 - spare)).any()):
            return None  # >= R: limb extraction would truncate
        out = np.empty((L, n), dtype=np.uint64)
        for j in range(L):
            bit = k * j
            w, off = bit >> 6, bit & 63
            limb = words[:, w] >> np.uint64(off)
            if off + k > 64 and w + 1 < W:
                limb = limb | (words[:, w + 1] << np.uint64(64 - off))
            out[j] = limb & self.mask
        if n and self._any_ge_p(out):
            out = self.reduce_canonical(out)
        return out

    def _pack_word(self, values: Sequence[int]):
        """:meth:`pack` for ``p < 2^64``: split one uint64 word per value.

        Values in ``[0, 2^64)`` are canonicalized with one vectorized
        ``%``; others return ``None``, as in :meth:`pack`.
        """
        np = self.np
        try:
            word = np.array(values, dtype=np.uint64)
        except (OverflowError, TypeError, ValueError):
            return None
        p = np.uint64(self.p)
        if word.size and bool((word >= p).any()):
            word %= p
        out = np.empty((self.L, word.size), dtype=np.uint64)
        for j in range(self.L):
            np.right_shift(word, np.uint64(self.k * j), out=out[j])
            out[j] &= self.mask
        return out

    def _any_ge_p(self, arr) -> bool:
        """Vectorized lexicographic test: does any column reach p?"""
        np = self.np
        undecided = np.ones(arr.shape[-1], dtype=bool)
        ge = np.zeros(arr.shape[-1], dtype=bool)
        for j in range(self.L - 1, -1, -1):
            limb = self.p_col[j, 0]
            ge |= undecided & (arr[j] > limb)
            undecided &= arr[j] == limb
        ge |= undecided  # exactly equal to p
        return bool(ge.any())

    def unpack(self, arr) -> list[int]:
        """Canonical packed ``(L, n)`` (value < p) -> list of ints."""
        from repro.field.packed import decode_words

        return decode_words(self.words(arr))

    def words(self, arr):
        """Canonical packed ``(L, n)`` -> each value's little-endian words.

        A ``<u8`` array of ``V = ceil(bits(p) / 64)`` words per value,
        shape ``(n, V)`` (``(n,)`` when ``V`` is 1): the buffer
        :meth:`unpack` decodes, and the values' fixed-width bytes.
        """
        np, k, L, V = self.np, self.k, self.L, self.V
        if V == 1:  # every value fits one uint64 word
            word = arr[0].astype("<u8")
            for j in range(1, L):
                word |= arr[j] << np.uint64(k * j)
            return word
        words = np.zeros((arr.shape[-1], V), dtype="<u8")
        for j in range(L):
            bit = k * j
            w, off = bit >> 6, bit & 63
            if w >= V:  # limbs above bits(p) are zero in canonical values
                break
            words[:, w] |= arr[j] << np.uint64(off)
            if off + k > 64 and w + 1 < V:
                words[:, w + 1] |= arr[j] >> np.uint64(64 - off)
        return words

    # -- lane-shape hooks (see backend._Kernel) ------------------------------

    def lanes(self, arr) -> int:
        return arr.shape[-1]

    def lane_int(self, arr, i: int) -> int:
        k = self.k
        return sum(int(arr[j, i]) << (k * j) for j in range(self.L))

    # -- canonical element-wise ops ------------------------------------------

    def add(self, a, b):
        s = a + b
        self.norm_seq(s)
        return self._cond_sub(s)

    def sub(self, a, b):
        s = a + self.p_col - b  # per-limb wrap: signed chain repairs it
        self.norm_seq_signed(s)
        return self._cond_sub(s)

    def neg(self, a):
        s = self.p_col - a
        self.norm_seq_signed(s)
        return self._cond_sub(s)  # a == 0 lands on p, subtracted to 0

    def mul(self, a, b):
        sc = self.scratch(a.shape[-1] if a.shape[-1] >= b.shape[-1]
                          else b.shape[-1])
        a_mont = self.montmul_lazy(a, self.r2_col, sc).copy()
        self.norm_seq(a_mont)  # montmul(a, R^2) = a*R, canonical limbs
        out = self.montmul_lazy(a_mont, b, sc)
        self.norm_seq(out)
        return self._cond_sub(out)

    def mul_scalar(self, a, s: int):
        # One montmul against s*R mod p: montmul(a, s*R) = a*s.
        s_col = self._column(s * self.schedule.r % self.p)
        sc = self.scratch(a.shape[-1])
        out = self.montmul_lazy(a, s_col, sc)
        self.norm_seq(out)
        return self._cond_sub(out)

    def mul_mont(self, a, b_mont, work=None):
        """Multiply ``a`` by a *Montgomery-form* table.

        ``b_mont`` holds ``b*R mod p`` (the :meth:`pack_table` format),
        so one montmul lands directly on ``a*b``: half the montmuls of
        :meth:`mul`.  This is the pointwise primitive the packed prover
        pipelines use for coset scale tables and quotient denominators,
        and the exit of :meth:`ntt_core`.  ``a`` needs canonical limbs
        but may hold any value below R (the montmul lands below 2p
        whatever the value); ``work`` is as in :meth:`_cond_sub`.
        """
        sc = self.scratch(a.shape[-1])
        out = self.montmul_lazy(a, b_mont, sc)
        self.norm_seq(out)
        return self._cond_sub(out, work=work)

    def fused_quotient(self, a, b, c, s: int):
        """``(a*b - c) * s mod p`` with one conditional subtraction.

        The QAP quotient leg ``h = (A*B - C) * Z^-1`` evaluated on the
        coset.  Run separately this is mul + sub + scale — three
        conditional reductions and three normalization sweeps between
        them.  Here the intermediates ride the lazy-carry headroom
        instead (``max_lazy_stages`` leaves ~2^84 p of slack on
        BN254-Fr, we use < 4p): ``a*b`` stays < 2p un-reduced, the
        subtraction adds ``2p`` and wraps limb-wise, and the final
        montmul against ``s*R`` absorbs the whole < 4p value — one
        conditional subtraction at the very end lands canonical.
        """
        n = a.shape[-1]
        sc = self.scratch(n)
        b_mont = self.montmul_lazy(b, self.r2_col, sc).copy()
        self.norm_seq(b_mont)  # b*R (< 2p), canonical limbs
        ab = self.montmul_lazy(a, b_mont, sc).copy()
        self.norm_seq(ab)  # a*b (< 2p), canonical limbs, NOT reduced
        t = ab + self.twop_col - c  # < 4p; per-limb wrap repaired below
        self.norm_seq_signed(t)
        s_col = self._column(s * self.schedule.r % self.p)
        out = self.montmul_lazy(t, s_col, sc)
        self.norm_seq(out)
        return self._cond_sub(out)

    def gather_dot(self, x, slots):
        """``sum_j x[:, idx_j] * t_j mod p`` with lazy accumulation.

        The compiled R1CS row kernel (see
        :func:`repro.field.packed.gather_dot` for the slot format):
        each slot gathers ``x`` on the element axis and, unless its
        table is ``None`` (all coefficients 1), multiplies by the
        Montgomery-form table with one montmul.  Every term is below
        ``2p`` with canonical limbs once normalized, so up to
        ``schedule.lazy_sum_terms`` of them add without a reduction
        (the sum stays below R, limbs far below 2^64); then one carry
        pass and the Barrett exit land canonical.  Longer sums reduce
        once per that many terms, the reduced partial counting as one.
        """
        np, L = self.np, self.L
        lanes = len(slots[0][0])
        sc = self.scratch(lanes)
        cap = self.schedule.lazy_sum_terms
        acc = np.zeros((L, lanes), dtype=np.uint64)
        gathered = np.empty((L, lanes), dtype=np.uint64)
        terms = 0
        for idx, table in slots:
            if terms == cap:
                self.norm_seq(acc)
                acc = self.reduce_canonical(acc)
                terms = 1
            np.take(x, idx, axis=1, out=gathered)
            if table is None:
                acc += gathered
            else:
                product = self.montmul_lazy(gathered, table, sc)
                self.norm_seq(product)
                acc += product
            terms += 1
        self.norm_seq(acc)
        return self.reduce_canonical(acc)

    # -- NTT core ------------------------------------------------------------

    def pack_table(self, values: Sequence[int]):
        """Pack a twiddle table into Montgomery form: tw*R mod p, canonical.

        Vectorized domain entry: pack raw, then one montmul against
        R^2 (``montmul(tw, R^2) = tw*R``).
        """
        raw = self.pack(values)
        if raw is None:
            raw = self.pack([v % self.p for v in values])
        return self.to_table(raw)

    def to_table(self, arr):
        """A canonical packed array in :meth:`pack_table` form (x*R mod p).

        One montmul against R^2.  :meth:`mul_mont` by the result is a
        product by ``arr`` at half the montmuls of :meth:`mul`, so an
        operand multiplied more than once pays this conversion once.
        """
        return self.mul_mont(arr, self.r2_col)

    def from_table(self, arr):
        """The canonical values of a :meth:`to_table` array (x*R -> x).

        One montmul against the plain 1: ``montmul(x*R, 1) = x``.
        """
        return self.mul_mont(arr, self.one_col)

    def _stage_tables_for(self, table, n: int) -> list:
        """Per-stage ``(L, m)`` twiddle slices for an n-point DIT run.

        Stage ``s`` multiplies its ``m = 2^s`` butterfly groups by one
        twiddle each, so only those ``m`` columns stay resident; the
        run widens them to its lane count (:meth:`ntt_core`).  Keyed by
        the table's identity (a strong reference is kept, so ``id``
        stays valid) and n, not the batch, so a stream of varying
        batch sizes shares one entry; bounded to a few tables.
        """
        key = (id(table), n)
        tabs = self._stage_tables.get(key)
        if tabs is None:
            half_n = n // 2
            tabs = [table]  # strong ref pins id(table)
            m = 1
            while m <= half_n:  # first stage (m == 1): tw == 1
                tabs.append(self.np.ascontiguousarray(
                    table[:, ::half_n // m][:, :m]) if m > 1 else None)
                m *= 2
            if len(self._stage_tables) >= 4:
                self._stage_tables.pop(next(iter(self._stage_tables)))
            self._stage_tables[key] = tabs
        return tabs[1:]

    def _widen(self, stage, out, stride: int):
        """Stage twiddles ``(L, m)`` repeated ``stride`` times per group.

        Written into the scratch ``out`` (``(L, m * stride)``); a
        stride of 1 needs no copy.  Up to a stride of 4, ``stride``
        strided column copies beat one broadcast copy's ``L * m`` tiny
        rows; above it the broadcast copy wins (2^8-2^13 lanes).
        """
        if stride == 1:
            return stage
        L, m = stage.shape
        grid = out.reshape(L, m, stride)
        if stride <= 4:
            for j in range(stride):
                grid[:, :, j] = stage
        else:
            self.np.copyto(grid, stage[:, :, None])
        return out

    def ntt_core(self, values, table, batch: int = 1, exit=None):
        """Forward DIT Stockham NTT on packed planes; canonical result.

        ``values``: canonical packed ``(L, batch * n)``, ``batch``
        transforms stored size-major (element ``i`` of vector ``g`` at
        lane ``i * batch + g``); ``table``: the first ``n/2`` twiddle
        powers in Montgomery form (``pack_table``).  The batch lane is
        the innermost axis of every stage view, so one pass runs every
        vector's butterflies and the output keeps the size-major order.
        Input is never mutated.  Butterflies run semi-lazily — each
        stage writes ``a + u`` and ``a - u + 2p`` with the carry chain
        fused into the same limb-row pass (``butterfly_stage``), so
        limbs leave every stage canonical and the CIOS accumulator
        stays clear of uint64 overflow, while the *value* bound grows
        to (2s+1)p over s = log2(n) stages, reduced once by the Barrett
        exit.

        ``exit``, if given, is a Montgomery-form ``(L, 1)`` column or
        ``(L, batch * n)`` table (``pack_table`` format, size-major like
        the output) that multiplies the result: the lazy last-stage
        value (< R, canonical limbs) is montmulled by it instead of
        going through the Barrett exit (:meth:`mul_mont`: the montmul
        lands below 2p, so one carry chain and one conditional
        subtraction finish canonical).
        This is how an inverse transform's ``1/n`` (and a coset's
        ``g^-i``) cost no pass of their own.

        Each stage montmuls its odd halves by their twiddles, except in
        the wide stages (:data:`GROUP0_MIN_STRIDE`), whose group 0 has
        the unit twiddle and is Barrett-reduced instead.
        """
        if values.shape[-1] == batch:
            return values.copy() if exit is None \
                else self.mul_mont(values, exit)
        x, work = self._stages(values, table, batch)
        if exit is None:
            return self.reduce_canonical(x, work=work)
        return self.mul_mont(x, exit, work=work)

    def ntt_lazy(self, values, table, batch: int = 1):
        """:meth:`ntt_core` without its exit: the lazy last-stage values.

        A fresh ``(L, batch * n)`` array with canonical limbs and values
        below R (not below p) that still owes its exit; one
        :meth:`mul_mont` by a Montgomery-form column or table finishes
        it, bit-identical to passing that operand as ``ntt_core``'s
        ``exit``.  Lets a caller defer the exit until it knows what
        else the same montmul can carry (a following coset scaling).
        """
        return self._stages(values, table, batch)[0]

    def _stages(self, values, table, batch: int):
        """Every butterfly stage of :meth:`ntt_core`: ``(x, work)``.

        ``x`` holds the last stage's lazy values in an array the caller
        owns (never ``values``); ``work`` is an equally shaped spare.
        """
        np, L = self.np, self.L
        lanes = values.shape[-1]
        n = lanes // batch
        stages = n.bit_length() - 1
        if stages > self.schedule.max_lazy_stages:
            raise FieldError(
                f"{n}-point transform exceeds the lazy-carry bound "
                f"(2^{self.schedule.max_lazy_stages} points) for this "
                f"limb schedule")
        if n == 1:
            return values.copy(), np.empty_like(values)
        half_lanes = lanes // 2
        tabs = self._stage_tables_for(table, n)
        sc = self.scratch(half_lanes)
        x = values
        y = np.empty_like(values)
        spare = None  # second ping-pong buffer, allocated lazily
        c0, c1 = sc["c0"], sc["c1"]
        # ``stride`` counts lanes: the size-axis stride times the batch.
        stride, m, si = half_lanes, 1, 0
        while stride >= batch:
            y0 = y[:, :half_lanes]
            y1 = y[:, half_lanes:]
            if m == 1:
                self.butterfly_stage(x[:, :half_lanes], x[:, half_lanes:],
                                     y0, y1, c0, c1)
            else:
                xr = x.reshape(L, m, 2, stride)
                if stride >= GROUP0_MIN_STRIDE:
                    u = self._twiddle_groups(xr, tabs[si], sc)
                else:
                    # Copy the odd half into persistent scratch — the
                    # CIOS loop reads it L times and wants it contiguous.
                    b = sc["b"]
                    np.copyto(b.reshape(L, m, stride), xr[:, :, 1, :])
                    u = self.montmul_lazy(
                        b, self._widen(tabs[si], sc["tw"], stride), sc)
                # The even half feeds the butterfly as a strided view.
                self.butterfly_stage(xr[:, :, 0, :],
                                     u.reshape(L, m, stride),
                                     y0.reshape(L, m, stride),
                                     y1.reshape(L, m, stride),
                                     c0.reshape(m, stride),
                                     c1.reshape(m, stride))
            if x is values:  # never ping-pong into the caller's array
                if spare is None:
                    spare = np.empty_like(values)
                x, y = y, spare
            else:
                x, y = y, x
            m *= 2
            stride //= 2
            si += 1
        return x, y

    def _twiddle_groups(self, xr, stage, sc):
        """One stage's twiddled odd halves, group 0 without a montmul.

        ``xr`` is the stage input viewed ``(L, m, 2, stride)``,
        ``stage`` the stage's ``(L, m)`` twiddles and ``sc`` the
        stage's scratch; returns the odd halves as ``sc["b"]``, shaped
        ``(L, m * stride)``, every value below 2p.  Group 0's twiddle is
        1, so its lanes are only *reduced*: the two-limb Barrett step
        (:meth:`_barrett_lazy`) takes any value below R under 2p, as
        the montmul by ``1·R`` would, for a fraction of its cost.
        Groups 1..m-1 run the montmul on contiguous scratch of their
        own lane count (on row views of the stage's buffers it runs up
        to 1.8x slower), and one row copy places its result.  The
        smaller count's scratch aliases ``sc``: it is used up before
        ``sc["b"]`` is written.
        """
        np, L = self.np, self.L
        _, m, _, stride = xr.shape
        rest = self.scratch((m - 1) * stride)
        np.copyto(rest["b"].reshape(L, m - 1, stride), xr[:, 1:, 1, :])
        np.copyto(rest["tw"].reshape(L, m - 1, stride), stage[:, 1:, None])
        product = self.montmul_lazy(rest["b"], rest["tw"], rest)
        u = sc["b"]
        np.copyto(u[:, stride:], product)
        self._barrett_lazy(xr[:, 0, 1, :], u[:, :stride])
        return u

    def _barrett_lazy(self, x, out) -> None:
        """``out = x - q*p`` below 2p, for canonical limbs ``x`` < R.

        The Barrett estimate of :meth:`reduce_canonical` (see
        ``p_top1``) without its conditional subtraction; ``out`` gets
        canonical limbs and must not overlap ``x``.
        """
        np = self.np
        q = ((x[self.L - 1] << self.sh) | x[self.L - 2]) // self.p_top1
        np.multiply(self.p_col, q, out=out)
        np.subtract(x, out, out=out)
        self.norm_seq_signed(out)
