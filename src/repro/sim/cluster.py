"""A simulated multi-GPU cluster with counted collectives.

The cluster owns the devices and implements the communication
primitives the distributed NTT engines use:

* :meth:`SimCluster.all_to_all` — personalized all-to-all (the transpose
  collective); the workhorse of both the baseline and UniNTT engines;
* :meth:`SimCluster.pairwise_exchange` — disjoint-pair exchange (one
  butterfly stage of a cross-GPU NTT);
* :meth:`SimCluster.gather_to` / :meth:`SimCluster.scatter_from` — used
  by the single-GPU engine (and by the end-to-end pipeline when a stage
  insists on one device);
* :meth:`SimCluster.charge_all_to_all` — an all-to-all charged by
  element counts alone, for the packed path whose data the devices
  never hold.

Each is an adapter: it checks its shape, lists its messages as
``(src, dst, payload)`` sends, and hands them to one exchange core,
:meth:`SimCluster._exchange`, which moves, charges and traces them.
The core updates per-GPU counters and appends the trace events, so
every byte ``bytes_by_level`` sees is charged in one place.  Reading
data *without* charging (for verification) goes through
:meth:`SimCluster.peek_shards`.

Fault injection hooks into the core: when an injector from
:mod:`repro.sim.faults` is installed, each collective is *gated* on it
(transient failures and device deaths raise before any bytes move, so
an aborted collective charges nothing) and in-flight messages pass
through its corruption hook.  With :attr:`SimCluster.checksum_exchanges`
enabled, every cross-device message is additionally covered by a seeded
random-linear-probe checksum computed on the sender's data and checked
against the delivered data — an injected corruption then surfaces as
:class:`~repro.errors.ShardCorruptionError` instead of silently wrong
output.  Count payloads skip both hooks.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.errors import ShardCorruptionError, SimulationError
from repro.field.prime_field import PrimeField
from repro.hw.cost import field_limbs
from repro.sim.device import SimGPU
from repro.sim.trace import Trace, TraceEvent

__all__ = ["SimCluster"]


class SimCluster:
    """``gpu_count`` simulated GPUs over one interconnect fabric.

    ``node_size`` optionally groups GPUs into nodes of that many
    devices; collectives then attribute bytes that cross a node
    boundary to the "multi-node" trace level and bytes that stay inside
    a node to "multi-gpu", so hierarchy-aware engines can be audited
    per fabric.
    """

    def __init__(self, field: PrimeField, gpu_count: int,
                 node_size: int | None = None, *,
                 trace: Trace | None = None,
                 injector=None):
        if gpu_count < 1 or gpu_count & (gpu_count - 1):
            raise SimulationError(
                f"gpu_count must be a power of two, got {gpu_count}")
        if node_size is not None:
            if (node_size < 1 or node_size & (node_size - 1)
                    or gpu_count % node_size):
                raise SimulationError(
                    f"node_size {node_size} must be a power of two "
                    f"dividing gpu_count {gpu_count}")
        self.field = field
        self.gpu_count = gpu_count
        self.node_size = node_size
        self.element_bytes = field_limbs(field) * 8
        self.gpus = [SimGPU(i, field) for i in range(gpu_count)]
        self.trace = trace if trace is not None else Trace()
        self.injector = injector
        self.checksum_exchanges = False
        self.checksum_seed = 0
        self._collective_seq = 0
        self._precondition_cache: set[tuple] = set()
        self.precondition_hits = 0
        self.precondition_misses = 0

    def install_faults(self, injector) -> None:
        """Attach a :class:`repro.sim.faults.FaultInjector` to this run."""
        self.injector = injector

    # -- precondition memoization ---------------------------------------------

    def _precondition_cached(self, key: tuple) -> bool:
        """Whether one collective shape was already proven well-formed.

        The engines issue the same collective shapes thousands of times
        (every transform of a given size re-validates an identical
        partner map or outbox geometry).  Validation is pure in the
        shape, so a shape already proven well-formed is admitted without
        re-walking it; the hit/miss counters let tests pin that repeated
        identical shapes are checked exactly once.  Callers record a key
        via :meth:`_precondition_proven` only *after* validation passes,
        so a rejected shape is never cached.
        """
        if key in self._precondition_cache:
            self.precondition_hits += 1
            return True
        self.precondition_misses += 1
        return False

    def _precondition_proven(self, key: tuple) -> None:
        self._precondition_cache.add(key)

    @property
    def node_count(self) -> int:
        """Number of nodes (1 when node structure is not modeled)."""
        if self.node_size is None:
            return 1
        return self.gpu_count // self.node_size

    def node_of(self, gpu_id: int) -> int:
        """The node a GPU belongs to (0 when unstructured)."""
        if self.node_size is None:
            return 0
        return gpu_id // self.node_size

    def __repr__(self) -> str:
        return (f"SimCluster({self.gpu_count}x GPU, field={self.field.name}, "
                f"{len(self.trace)} events)")

    # -- raw data access -------------------------------------------------------

    def load_shards(self, shards: Sequence[Sequence[int]]) -> None:
        """Install one shard per GPU (host staging; not counted)."""
        if len(shards) != self.gpu_count:
            raise SimulationError(
                f"expected {self.gpu_count} shards, got {len(shards)}")
        for gpu, shard in zip(self.gpus, shards):
            gpu.load(list(shard))

    def peek_shards(self) -> list[list[int]]:
        """Copy every shard without touching any counter."""
        return [list(gpu.shard) for gpu in self.gpus]

    def reset_counters(self) -> None:
        """Zero all device counters and drop the trace."""
        for gpu in self.gpus:
            gpu.reset_counters()
        self.trace.clear()

    # -- collectives ----------------------------------------------------------

    def _exchange(self, kind: str, sends: Sequence[tuple],
                  detail: str) -> list[list[int]]:
        """Move, charge and trace one collective: the one exchange core.

        ``sends`` lists ``(src, dst, payload)`` in delivery order.  A
        payload is either a sequence of field values -- copied, passed
        through the injector's corruption hook and, with
        :attr:`checksum_exchanges`, a seeded random-linear probe sum
        compared between the sender's and the delivered copy -- or an
        element count, which is only charged.  The injector gates the
        collective first, so an aborted one charges nothing.  Messages
        a GPU sends itself move no bytes; every other message charges
        its receiver, and each sender is charged its total.  Bytes
        between GPUs of one node trace at "multi-gpu", the rest at
        "multi-node".  Returns the delivered
        copies in send order (empty when the payloads are counts).
        """
        self._collective_seq += 1
        seq = self._collective_seq
        injector = self.injector
        if injector is not None:
            injector.on_collective_start(self, kind, detail)
        moved = not sends or hasattr(sends[0][2], "__len__")
        delivered: list[list[int]] = []
        if moved:
            check = self.checksum_exchanges
            p = self.field.modulus
            for src, dst, payload in sends:
                message = list(payload)
                if injector is not None:
                    injector.corrupt_inflight(self, dst, message)
                if check and src != dst:
                    # Sender and receiver weigh their copies with the
                    # same non-zero weights, so any corrupted slot shows.
                    rng = random.Random(repr(
                        (self.checksum_seed, kind, seq, src, dst)))
                    sent = got = 0
                    for v, w in zip(payload, message):
                        weight = rng.randrange(1, p)
                        sent = (sent + weight * v) % p
                        got = (got + weight * w) % p
                    if sent != got:
                        raise ShardCorruptionError(
                            f"random-linear probe mismatch on {kind} "
                            f"message {src}->{dst} (collective {seq}): "
                            "in-flight data was corrupted")
                delivered.append(message)
            # From here on every payload is its element count.
            sends = [(src, dst, len(message))
                     for (src, dst, _), message in zip(sends, delivered)]
        g = self.gpu_count
        eb = self.element_bytes
        gpus = self.gpus
        node_size = self.node_size
        intra = [0] * g
        inter = [0] * g
        for src, dst, count in sends:
            if src != dst:
                nbytes = count * eb
                if node_size is None or src // node_size == dst // node_size:
                    intra[src] += nbytes
                else:
                    inter[src] += nbytes
                gpus[dst].charge_receive(nbytes)
        for gpu, sent_near, sent_far in zip(gpus, intra, inter):
            gpu.charge_send(sent_near + sent_far)
        near, far = sum(intra), sum(inter)
        self.trace.record(TraceEvent(
            kind=kind, level="multi-gpu", max_bytes_per_gpu=max(intra),
            total_bytes=near, detail=detail))
        if far:
            self.trace.record(TraceEvent(
                kind=kind, level="multi-node", max_bytes_per_gpu=max(inter),
                total_bytes=far, detail=detail))
        if moved and self.checksum_exchanges:
            self.trace.record(TraceEvent(
                kind="verify", level="resilience", detail=f"checksum:{kind}"))
        if injector is not None:
            injector.on_collective_end(self, kind, near + far)
        return delivered

    def all_to_all(self, outboxes: Sequence[Sequence[Sequence[int]]],
                   detail: str = "") -> list[list[list[int]]]:
        """Personalized all-to-all.

        ``outboxes[src][dst]`` is the message (list of field values) GPU
        ``src`` sends to GPU ``dst``.  Returns ``inboxes`` with
        ``inboxes[dst][src]`` the received message.  Self-messages move
        no bytes.
        """
        g = self.gpu_count
        self._check_matrix("all_to_all", outboxes, "outbox matrix", "outbox")
        delivered = self._exchange(
            "all-to-all", [(src, dst, message)
                           for src, row in enumerate(outboxes)
                           for dst, message in enumerate(row)], detail)
        return [delivered[dst::g] for dst in range(g)]

    def charge_all_to_all(self, counts: Sequence[Sequence[int]],
                          detail: str = "") -> None:
        """Charge a personalized all-to-all by element counts alone.

        The packed execution path (:mod:`repro.multigpu.polynomial`)
        runs transforms on host-resident limb-plane arrays the devices
        never hold, yet must stay counter-for-counter comparable with
        the materialized path.  This applies exactly the per-GPU
        send/receive charges and trace events :meth:`all_to_all` would
        for an exchange whose ``src -> dst`` message carries
        ``counts[src][dst]`` field elements — without moving any data.
        The injector gate still runs (the collective sequence number
        advances identically), but no per-message hooks fire: callers
        needing corruption or checksum coverage must materialize.
        """
        self._check_matrix("charge_all_to_all", counts, "count matrix", "row")
        self._exchange("all-to-all", [(src, dst, count)
                                      for src, row in enumerate(counts)
                                      for dst, count in enumerate(row)],
                       detail)

    def _check_matrix(self, name: str, matrix: Sequence[Sequence],
                      what: str, row_name: str) -> None:
        """Require a G x G matrix (memoized per shape)."""
        g = self.gpu_count
        shape_key = (name, len(matrix), tuple(len(row) for row in matrix))
        if self._precondition_cached(shape_key):
            return
        if len(matrix) != g:
            raise SimulationError(
                f"{name} needs a {g}x{g} {what}, got {len(matrix)} rows")
        for src, row in enumerate(matrix):
            if len(row) != g:
                raise SimulationError(
                    f"{name}: GPU {src} {row_name} has {len(row)} "
                    f"destinations, expected {g}")
        self._precondition_proven(shape_key)

    def pairwise_exchange(self, partner_of: Sequence[int],
                          payloads: Sequence[Sequence[int]],
                          detail: str = "") -> list[list[int]]:
        """Disjoint-pair exchange: GPU i sends its payload to its partner.

        ``partner_of`` must be an involution (``partner_of[partner_of[i]]
        == i``); a GPU that is its own partner moves nothing.  Returns
        the payload each GPU received.
        """
        g = self.gpu_count
        if len(partner_of) != g:
            raise SimulationError(
                f"pairwise_exchange needs one partner per GPU: "
                f"got {len(partner_of)} partners for {g} GPUs")
        if len(payloads) != g:
            raise SimulationError(
                f"pairwise_exchange needs one payload per GPU: "
                f"got {len(payloads)} payloads for {g} GPUs")
        shape_key = ("pairwise", tuple(partner_of))
        if not self._precondition_cached(shape_key):
            for i, j in enumerate(partner_of):
                if not 0 <= j < g:
                    raise SimulationError(
                        f"pairwise_exchange: GPU {i} has partner {j}, "
                        f"outside 0..{g - 1}")
                if partner_of[j] != i:
                    raise SimulationError(
                        f"partner map is not an involution at GPU {i}")
            self._precondition_proven(shape_key)
        delivered = self._exchange(
            "pairwise",
            [(i, j, payloads[i]) for i, j in enumerate(partner_of)], detail)
        return [delivered[i] for i in partner_of]

    def gather_to(self, root: int, detail: str = "") -> list[list[int]]:
        """Collect every shard on GPU ``root``; returns the shard list."""
        self._check_root("gather_to", root)
        shards = self._exchange(
            "gather", [(gpu.gpu_id, root, gpu.shard) for gpu in self.gpus
                       if gpu.gpu_id != root], detail)
        shards.insert(root, list(self.gpus[root].shard))
        return shards

    def scatter_from(self, root: int, shards: Sequence[Sequence[int]],
                     detail: str = "") -> None:
        """Distribute ``shards[i]`` to GPU ``i`` from GPU ``root``."""
        self._check_root("scatter_from", root)
        if len(shards) != self.gpu_count:
            raise SimulationError(
                f"scatter_from: expected {self.gpu_count} shards, "
                f"got {len(shards)}")
        staged = self._exchange(
            "scatter", [(root, dst, shard) for dst, shard in enumerate(shards)
                        if dst != root], detail)
        staged.insert(root, list(shards[root]))
        for gpu, shard in zip(self.gpus, staged):
            gpu.load(shard)

    def _check_root(self, name: str, root: int) -> None:
        if not 0 <= root < self.gpu_count:
            raise SimulationError(
                f"{name}: invalid root GPU {root} "
                f"(cluster has GPUs 0..{self.gpu_count - 1})")

    # -- local accounting shared by engines ---------------------------------------

    def charge_local(self, field_muls_per_gpu: int, mem_bytes_per_gpu: int,
                     detail: str = "", *,
                     buffers: dict[int, list[list[int]]] | None = None
                     ) -> None:
        """Charge an identical local kernel on every GPU.

        This is the *blessed local-compute hook*: when a fault injector
        is installed, its compute-fault machinery observes every local
        kernel charged here (keyed on the local-compute step counter),
        which is where ``compute-bitflip`` / ``twiddle-corrupt`` /
        ``mercurial-device`` faults fire.  ``buffers`` maps ``gpu_id``
        to the mutable value buffers that GPU wrote during this kernel
        so a fired fault corrupts real data; pass ``None`` when the
        charge replays pricing for host-resident packed arrays the
        devices do not hold — the injector then only advances its step
        counter and the caller replays the range afterwards
        (:meth:`repro.sim.faults.FaultInjector.replay_local_steps`).
        Engine code in ``repro.multigpu`` must route local-compute
        charges through this hook rather than recording
        ``local-compute`` events directly (the ``lint.abft-hook`` rule
        enforces this statically).
        """
        for gpu in self.gpus:
            gpu.charge_compute(field_muls_per_gpu, mem_bytes_per_gpu)
        self.trace.record(TraceEvent(
            kind="local-compute", level="gpu",
            total_bytes=mem_bytes_per_gpu * self.gpu_count,
            max_bytes_per_gpu=mem_bytes_per_gpu,
            field_muls=field_muls_per_gpu * self.gpu_count, detail=detail))
        self.local_compute_hook(buffers, detail)

    def local_compute_hook(self,
                           buffers: dict[int, list[list[int]]] | None = None,
                           detail: str = "") -> None:
        """Feed one already-charged local kernel to the fault injector.

        Engines whose local kernels charge devices non-uniformly (and
        therefore cannot use :meth:`charge_local`) must call this once
        per recorded ``local-compute`` trace event, passing the mutable
        per-GPU value buffers the kernel wrote (or ``None`` for
        charge-only replays against data the devices do not hold).
        This keeps the injector's local-compute step counter in
        lockstep with the trace regardless of execution route.
        """
        hook = getattr(self.injector, "on_local_compute", None)
        if hook is not None:
            hook(self, buffers, detail)

    # -- invariants -----------------------------------------------------------

    def validate_shards(self) -> None:
        """Check every shard holds canonical field values.

        Engines run this at phase boundaries in paranoid tests; a
        corrupted element (bit flip, wrong-field write, stale buffer)
        fails fast with the device and index named.
        """
        from repro.field.vector import validate_vector

        for gpu in self.gpus:
            try:
                validate_vector(self.field, gpu.shard)
            except Exception as error:
                raise SimulationError(
                    f"GPU {gpu.gpu_id} shard invalid: {error}") from error

    def corrupt(self, gpu_id: int, local_index: int, value: int) -> int:
        """Deliberately overwrite one shard slot (fault injection).

        Returns the previous value so tests can restore it.
        """
        if not 0 <= gpu_id < self.gpu_count:
            raise SimulationError(f"invalid gpu_id {gpu_id}")
        shard = self.gpus[gpu_id].shard
        if not 0 <= local_index < len(shard):
            raise SimulationError(
                f"GPU {gpu_id}: local index {local_index} out of range")
        previous = shard[local_index]
        shard[local_index] = value
        return previous

    def check_conservation(self) -> None:
        """Total bytes sent must equal total bytes received."""
        sent = sum(g.counters.bytes_sent for g in self.gpus)
        received = sum(g.counters.bytes_received for g in self.gpus)
        if sent != received:
            raise SimulationError(
                f"conservation violated: sent {sent} != received {received}")
