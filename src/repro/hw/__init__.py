"""Abstract hardware model, machine presets, and the analytic cost model."""

from repro.hw.cost import (
    CostBreakdown, CostModel, Phase, PipelinedGroup, field_limbs,
)
from repro.hw.machines import (
    A100_GPU, A100_PCIE_NODE, ALL_MACHINES, DGX1_V100, DGX_A100, DGX_H100,
    H100_GPU, V100_GPU, machine_by_name,
)
from repro.hw.model import GpuSpec, LevelSpec, MachineModel
from repro.hw.multinode import (
    ALL_CLUSTERS, FOUR_NODE_DGX_A100, MultiNodeMachine, cluster_by_name,
)
from repro.hw.plancost import (
    PlanCost, price_schedule, schedule_seconds, schedule_steps,
)
from repro.hw.serialize import (
    cluster_from_dict, cluster_to_dict, gpu_from_dict, gpu_to_dict,
    interconnect_from_dict, interconnect_to_dict, load_machine_file,
    machine_from_dict, machine_to_dict,
)
from repro.hw.topology import (
    Interconnect, infiniband, nvlink_ring, nvswitch, pcie_host_staged,
)

__all__ = [
    "LevelSpec", "GpuSpec", "MachineModel",
    "Interconnect", "nvswitch", "nvlink_ring", "pcie_host_staged",
    "infiniband",
    "MultiNodeMachine", "FOUR_NODE_DGX_A100", "ALL_CLUSTERS",
    "cluster_by_name",
    "V100_GPU", "A100_GPU", "H100_GPU",
    "DGX1_V100", "DGX_A100", "DGX_H100", "A100_PCIE_NODE",
    "ALL_MACHINES", "machine_by_name",
    "Phase", "PipelinedGroup", "CostModel", "CostBreakdown", "field_limbs",
    "PlanCost", "price_schedule", "schedule_seconds",
    "schedule_steps",
    "gpu_to_dict", "gpu_from_dict", "interconnect_to_dict",
    "interconnect_from_dict", "machine_to_dict", "machine_from_dict",
    "cluster_to_dict", "cluster_from_dict", "load_machine_file",
]
