"""Hierarchical UniNTT across multiple nodes — the recursion, recursed.

With ``N`` nodes of ``P`` GPUs each (``G = N*P``, shard ``m = n/G``),
the cyclic decomposition UniNTT applies at the multi-GPU level is
applied once per device level.  The engine runs the program
:func:`~repro.multigpu.schedule.build_unintt_schedule` writes for the
fanouts ``(N, P)``, the same loop the flat engine runs for ``(G,)``:

1. **local** m-point transforms + fused intra-node twiddles
   (``local-ntt``);
2. **intra-node** all-to-all over each node's P GPUs (NVSwitch,
   ``unintt-exchange``), then P-point cross transforms (``cross-ntt``)
   leaving each node's ``M = n/N``-point sub-spectrum in the level-0
   :class:`~repro.multigpu.layout.SpectralLayout`;
3. **inter-node** twiddles ``w^(s_node * k1)`` read through that
   layout (``inter-twiddle-pass``, fused: multiplies only);
4. **inter-node** all-to-all, rail-aligned: GPU ``(t_node, s_gpu)``
   only exchanges with the ``s_gpu``-th GPU of other nodes
   (``unintt-inter-exchange``, level ``multi-node``), then N-point
   cross transforms (``inter-cross-ntt``).

Per GPU this moves ``m*(P-1)/P`` bytes on the fast intra-node fabric and
``m*(N-1)/N`` bytes on the network, where a flat (topology-unaware)
engine pushes essentially all of its volume through the network.  The
output stays in the last level's ``SpectralLayout`` of the fanouts;
:meth:`inverse` runs the program backwards to their ``CyclicLayout``.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.multigpu.schedule import ALL_ON
from repro.multigpu.unintt import UniNTTProgramEngine
from repro.sim.cluster import SimCluster

__all__ = ["HierarchicalUniNTTEngine"]


class HierarchicalUniNTTEngine(UniNTTProgramEngine):
    """Two-level UniNTT: intra-node exchange + inter-node exchange."""

    name = "unintt-hierarchical"
    #: Radix-2 local transforms, twiddles fused, output kept permuted,
    #: both exchanges overlapped with their cross transforms.
    options = ALL_ON.without("radix_fusion")

    def __init__(self, cluster: SimCluster, tile: int = 4096):
        super().__init__(cluster, tile)
        if cluster.node_size is None or cluster.node_count < 2:
            raise SimulationError(
                "HierarchicalUniNTTEngine needs a cluster with node "
                "structure (SimCluster(node_size=...), >= 2 nodes)")

    @property
    def fanouts(self) -> tuple[int, ...]:
        """``(N, P)``: the cluster's nodes, then its GPUs per node."""
        return (self.cluster.node_count, self.cluster.node_size)
