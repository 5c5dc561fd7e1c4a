"""Hierarchical UniNTT across multiple nodes — the recursion, recursed.

With ``N`` nodes of ``P`` GPUs each (``G = N*P``, shard ``m = n/G``),
the same cyclic decomposition that UniNTT applies at the multi-GPU level
is applied twice:

1. **local** m-point transforms (root ``w^G``) + fused intra-node
   twiddles;
2. **intra-node** all-to-all (each node's P GPUs only — NVSwitch
   traffic) followed by in-place P-point cross transforms: each node now
   holds its ``M = n/N``-point sub-spectrum in a per-node spectral
   layout;
3. fused **inter-node** twiddles ``w^(s_node * k1)``;
4. **inter-node** all-to-all — column-aligned: GPU ``(t_node, s_gpu)``
   only ever exchanges with the ``s_gpu``-th GPU of other nodes (the
   rail-optimized pattern) — followed by in-place N-point cross
   transforms.

Per GPU this moves ``m*(P-1)/P`` bytes on the fast intra-node fabric and
``m*(N-1)/N`` bytes on the network, where a flat (topology-unaware)
engine pushes essentially all of its volume through the network.  The
output stays in :class:`NestedSpectralLayout`; :meth:`inverse` consumes
it and returns the :class:`NestedCyclicLayout` input order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PartitionError, SimulationError
from repro.hw.cost import Phase, PipelinedGroup, Step
from repro.multigpu import accounting as acct
from repro.multigpu.base import (
    DistributedNTTEngine, DistributedVector, local_step, redistribute,
    twiddle_table,
)
from repro.multigpu.layout import BlockLayout, Layout
from repro.sim.cluster import SimCluster
from repro.sim.trace import TraceEvent

__all__ = [
    "NestedCyclicLayout", "IntraNodeExchangeLayout", "NodeSpectralLayout",
    "InterNodeExchangeLayout", "NestedSpectralLayout",
    "HierarchicalUniNTTEngine",
]


@dataclass(frozen=True)
class _NodeStructured(Layout):
    """Base for layouts over an N-node, P-GPUs-per-node cluster."""

    nodes: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.nodes < 1 or self.nodes & (self.nodes - 1):
            raise PartitionError(
                f"nodes must be a power of two, got {self.nodes}")
        if self.gpu_count % self.nodes:
            raise PartitionError(
                f"{self.gpu_count} GPUs do not split into {self.nodes} nodes")

    @property
    def gpus_per_node(self) -> int:
        return self.gpu_count // self.nodes

    @property
    def node_size(self) -> int:
        """Elements per node: M = n / N."""
        return self.n // self.nodes


class NestedCyclicLayout(_NodeStructured):
    """Input order: ``j = (q*P + s_gpu)*N + s_node``.

    GPU ``(s_node, s_gpu)`` holds the doubly-cyclic sub-sequence, so
    both recursion levels' local transforms touch only local data.
    """

    def global_index(self, gpu: int, local: int) -> int:
        self._check_slot(gpu, local)
        n_nodes, p = self.nodes, self.gpus_per_node
        s_node, s_gpu = divmod(gpu, p)
        return (local * p + s_gpu) * n_nodes + s_node


class NodeSpectralLayout(_NodeStructured):
    """Per-node spectra after step 2.

    Index space: ``v = s_node * M + k1`` with ``k1 = k1' + L*k2_gpu``
    (``L = M/P = m``).  Within node ``s_node``, GPU column ``t_gpu`` owns
    the k1'-chunk ``[t_gpu*L/P, ...)``, storing ``local = (k1' % (L/P))*P
    + k2_gpu`` — the per-node instance of
    :class:`~repro.multigpu.layout.SpectralLayout`.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        p = self.gpus_per_node
        if self.node_size < p * p:
            raise PartitionError(
                f"{type(self).__name__} needs M >= P^2 "
                f"({self.node_size} < {p}^2)")

    @property
    def chunk(self) -> int:
        """k1' values per GPU column: L / P."""
        return self.node_size // (self.gpus_per_node ** 2)

    def global_index(self, gpu: int, local: int) -> int:
        self._check_slot(gpu, local)
        p = self.gpus_per_node
        m_node = self.node_size
        l_local = m_node // p
        s_node, t_gpu = divmod(gpu, p)
        offset, k2_gpu = divmod(local, p)
        k1 = t_gpu * self.chunk + offset + l_local * k2_gpu
        return s_node * m_node + k1


class IntraNodeExchangeLayout(NodeSpectralLayout):
    """Target of the intra-node all-to-all, in unit-major index space.

    Index space: ``u = (s_node*P + s_gpu) * m + k1'`` (the physical
    order after the local transforms).  Within node ``s_node``, GPU
    column ``t_gpu`` receives the k1'-chunk ``[t_gpu*m/P, ...)`` from
    its node's P GPUs, storing the P-vector over ``s_gpu`` contiguously:
    ``local = (k1' % (m/P)) * P + s_gpu``.  That is the slot map of
    :class:`NodeSpectralLayout` with ``k2_gpu`` read as ``s_gpu``: the
    in-place P-point cross transform turns one into the other.  Traffic
    never crosses a node boundary.
    """


class NestedSpectralLayout(_NodeStructured):
    """Final spectrum order: ``k = k1 + M * k2_node``.

    Splits each GPU column's m spectrum slots into N sub-chunks of
    ``m/N``, storing the N-vector over ``k2_node`` contiguously.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        p = self.gpus_per_node
        if self.node_size < p * p:
            raise PartitionError(
                f"layout needs M >= P^2 ({self.node_size} < {p}^2)")
        if self.shard_size % self.nodes:
            raise PartitionError(
                f"shard of {self.shard_size} does not split into "
                f"{self.nodes} node sub-chunks (need n >= N^2 * P)")

    @property
    def sub(self) -> int:
        """Spectrum slots per (GPU, node sub-chunk): m / N."""
        return self.shard_size // self.nodes

    def global_index(self, gpu: int, local: int) -> int:
        self._check_slot(gpu, local)
        p = self.gpus_per_node
        l_local = self.node_size // p
        t_node, t_gpu = divmod(gpu, p)
        pos, k2_node = divmod(local, self.nodes)
        offset, k2_gpu = divmod(t_node * self.sub + pos, p)
        k1 = t_gpu * (l_local // p) + offset + l_local * k2_gpu
        return k2_node * self.node_size + k1


class InterNodeExchangeLayout(NestedSpectralLayout):
    """Index space ``v = s_node * M + k1`` after the inter-node
    all-to-all: GPU ``(t_node, t_gpu)`` holds, for each k1 in its
    sub-chunk, the N values over ``s_node`` contiguously — the slot map
    of :class:`NestedSpectralLayout` with ``k2_node`` read as
    ``s_node``, which the in-place N-point cross transform turns into
    the final spectrum order."""


class HierarchicalUniNTTEngine(DistributedNTTEngine):
    """Two-level UniNTT: intra-node exchange + inter-node exchange."""

    name = "unintt-hierarchical"

    def __init__(self, cluster: SimCluster, tile: int = 4096):
        super().__init__(cluster, tile)
        if cluster.node_size is None or cluster.node_count < 2:
            raise SimulationError(
                "HierarchicalUniNTTEngine needs a cluster with node "
                "structure (SimCluster(node_size=...), >= 2 nodes)")
        self.nodes = cluster.node_count
        self.per_node = cluster.node_size

    # -- layouts -----------------------------------------------------------

    def input_layout(self, n: int) -> Layout:
        return NestedCyclicLayout(n=n, gpu_count=self.gpu_count,
                                  nodes=self.nodes)

    def output_layout(self, n: int) -> Layout:
        return NestedSpectralLayout(n=n, gpu_count=self.gpu_count,
                                    nodes=self.nodes)

    def _check_size(self, n: int) -> None:
        g = self.gpu_count
        needed = max(self.nodes * self.nodes * self.per_node,
                     self.per_node * self.per_node * self.nodes)
        if n < needed:
            raise PartitionError(
                f"hierarchical engine needs n >= {needed} "
                f"(N^2*P and P^2*N), got {n}")

    # -- functional ------------------------------------------------------------

    def forward(self, vec: DistributedVector) -> DistributedVector:
        n = vec.n
        self._check_size(n)
        self._check_input(vec, self.input_layout(n))
        field = self.field
        p = field.modulus
        cluster = self.cluster
        n_nodes, per_node = self.nodes, self.per_node
        g = self.gpu_count
        m = n // g
        m_node = n // n_nodes
        root = field.root_of_unity(n)
        root_node = pow(root, n_nodes, p)        # order n/N: per-node root

        # 1. local m-point transforms (root w^G) + intra-node twiddle
        # (root_node^(s_gpu * k1'), fused).
        s_gpus = list(range(per_node)) * n_nodes
        local_step(cluster, m, pow(root, g, p),
                   post=twiddle_table(field, root_node, s_gpus, m))
        self._charge_local_ntt(m, detail="hier-local")

        # 2. intra-node all-to-all + P-point cross transforms.
        unit_major = BlockLayout(n=n, gpu_count=g)
        intra_exchange = IntraNodeExchangeLayout(n=n, gpu_count=g,
                                                 nodes=n_nodes)
        node_spectral = NodeSpectralLayout(n=n, gpu_count=g, nodes=n_nodes)
        redistribute(cluster, unit_major, intra_exchange,
                     detail="hier-intra-exchange")
        root_p = pow(root_node, m_node // per_node, p)  # order P
        self._cross_inplace(per_node, root_p, scale=None,
                            detail="hier-intra-cross")

        # 3. inter-node twiddle w^(s_node * k1), fused: each slot's k1
        # is read through the node-spectral layout.
        local_step(cluster, post=twiddle_table(
            field, root, range(n_nodes), m_node, layout=node_spectral))
        self._charge_twiddle(m, detail="hier-inter-twiddle")

        # 4. inter-node all-to-all (column-aligned) + N-point cross.
        exchange = InterNodeExchangeLayout(n=n, gpu_count=g, nodes=n_nodes)
        redistribute(cluster, node_spectral, exchange,
                     detail="hier-inter-exchange")
        root_n = pow(root, m_node, p)  # order N
        self._cross_inplace(n_nodes, root_n, scale=None,
                            detail="hier-inter-cross")
        return DistributedVector(
            cluster=cluster,
            layout=NestedSpectralLayout(n=n, gpu_count=g, nodes=n_nodes))

    def inverse(self, vec: DistributedVector) -> DistributedVector:
        n = vec.n
        self._check_size(n)
        self._check_input(vec, self.output_layout(n))
        field = self.field
        p = field.modulus
        cluster = self.cluster
        n_nodes, per_node = self.nodes, self.per_node
        g = self.gpu_count
        m = n // g
        m_node = n // n_nodes
        root = field.root_of_unity(n)
        inv_root = field.inv(root)
        inv_root_node = pow(inv_root, n_nodes, p)

        # 1. inverse N-point cross transforms (scale 1/N).
        inv_root_n = pow(inv_root, m_node, p)
        self._cross_inplace(n_nodes, inv_root_n,
                            scale=field.inv(n_nodes % p),
                            detail="hier-inv-inter-cross")

        # 2. inter-node all-to-all back + inverse inter-node twiddle.
        exchange = InterNodeExchangeLayout(n=n, gpu_count=g, nodes=n_nodes)
        node_spectral = NodeSpectralLayout(n=n, gpu_count=g, nodes=n_nodes)
        redistribute(cluster, exchange, node_spectral,
                     detail="hier-inv-inter-exchange")
        local_step(cluster, post=twiddle_table(
            field, inv_root, range(n_nodes), m_node, layout=node_spectral))
        self._charge_twiddle(m, detail="hier-inv-inter-twiddle")

        # 3. inverse P-point cross transforms (scale 1/P) + intra-node
        # all-to-all back to unit-major order.
        inv_root_p = pow(inv_root_node, m_node // per_node, p)
        self._cross_inplace(per_node, inv_root_p,
                            scale=field.inv(per_node % p),
                            detail="hier-inv-intra-cross")
        unit_major = BlockLayout(n=n, gpu_count=g)
        intra_exchange = IntraNodeExchangeLayout(n=n, gpu_count=g,
                                                 nodes=n_nodes)
        redistribute(cluster, intra_exchange, unit_major,
                     detail="hier-inv-intra-exchange")

        # 4. inverse intra-node twiddle + local inverse transforms (1/m).
        s_gpus = list(range(per_node)) * n_nodes
        local_step(cluster, m, pow(inv_root, g, p),
                   pre=twiddle_table(field, inv_root_node, s_gpus, m),
                   scale=field.inv(m % p))
        self._charge_local_ntt(m, scaled=True, detail="hier-inv-local")
        return DistributedVector(
            cluster=cluster,
            layout=NestedCyclicLayout(n=n, gpu_count=g, nodes=n_nodes))

    def _cross_inplace(self, size: int, root: int, scale: int | None,
                       detail: str) -> None:
        """In-place small transforms over contiguous groups of ``size``."""
        local_step(self.cluster, size, root, scale=scale)
        m = len(self.cluster.gpus[0].shard)
        self._charge_cross(m, size, scaled=scale is not None, detail=detail)

    # -- accounting --------------------------------------------------------------

    def _charge_local_ntt(self, m: int, detail: str,
                          scaled: bool = False) -> None:
        eb = self.cluster.element_bytes
        muls = acct.local_ntt_muls(m) + acct.twiddle_muls(m)
        if scaled:
            muls += m
        mem = acct.local_ntt_mem_bytes(m, eb, self.tile)
        self._record(muls, mem, detail)

    def _charge_cross(self, m: int, size: int, scaled: bool,
                      detail: str) -> None:
        eb = self.cluster.element_bytes
        muls = acct.small_batch_ntt_muls(m // size, size)
        if scaled:
            muls += m
        mem = acct.small_batch_mem_bytes(m // size, size, eb)
        self._record(muls, mem, detail)

    def _charge_twiddle(self, m: int, detail: str) -> None:
        # Fused into the adjacent kernel: multiplies only.
        self._record(acct.twiddle_muls(m), 0, detail)

    def _record(self, muls: int, mem: int, detail: str) -> None:
        for gpu in self.cluster.gpus:
            gpu.charge_compute(muls, mem)
        self.cluster.trace.record(TraceEvent(
            kind="local-compute", level="gpu", max_bytes_per_gpu=mem,
            total_bytes=mem * self.gpu_count,
            field_muls=muls * self.gpu_count, detail=detail))
        self.cluster.local_compute_hook(self._live_buffers(), detail)

    # -- analytic ----------------------------------------------------------------

    def _profile(self, n: int, inverse: bool) -> list[Step]:
        self._check_size(n)
        g = self.gpu_count
        eb = self.cluster.element_bytes
        m = n // g
        n_nodes, per_node = self.nodes, self.per_node

        local_muls = acct.local_ntt_muls(m) + acct.twiddle_muls(m)
        if inverse:
            local_muls += m
        local = Phase(name="local-ntt", field_muls=local_muls,
                      mem_bytes=acct.local_ntt_mem_bytes(m, eb, self.tile))

        intra_muls = acct.small_batch_ntt_muls(m // per_node, per_node)
        if inverse:
            intra_muls += m  # the 1/P scaling
        intra = PipelinedGroup(name="intra-node", phases=(
            Phase(name="intra-exchange",
                  exchange_bytes=acct.alltoall_bytes_per_gpu(m, per_node,
                                                             eb),
                  messages=per_node - 1),
            Phase(name="intra-cross", field_muls=intra_muls,
                  mem_bytes=acct.small_batch_mem_bytes(
                      m // per_node, per_node, eb)),
        ))

        twiddle = Phase(name="inter-twiddle",
                        field_muls=acct.twiddle_muls(m))

        inter_muls = acct.small_batch_ntt_muls(m // n_nodes, n_nodes)
        if inverse:
            inter_muls += m  # the 1/N scaling
        inter = PipelinedGroup(name="inter-node", phases=(
            Phase(name="inter-exchange",
                  exchange_bytes=acct.alltoall_bytes_per_gpu(m, n_nodes,
                                                             eb),
                  exchange_level="multi-node", messages=n_nodes - 1),
            Phase(name="inter-cross", field_muls=inter_muls,
                  mem_bytes=acct.small_batch_mem_bytes(
                      m // n_nodes, n_nodes, eb)),
        ))

        steps: list[Step] = [local, intra, twiddle, inter]
        if inverse:
            steps.reverse()
        return steps

    def forward_profile(self, n: int) -> list[Step]:
        return self._profile(n, inverse=False)

    def inverse_profile(self, n: int) -> list[Step]:
        return self._profile(n, inverse=True)
