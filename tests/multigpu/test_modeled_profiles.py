"""Pricing golden: profiles priced from the program keep every second.

``tests/data/modeled_profiles.json`` holds the cost estimates of the
closed-form phase profiles the UniNTT engines carried before their
profiles became ``schedule_steps(program)``, recorded as ``repr``
strings: the flat engine over the ablation grid (three fields, G in
{2, 4, 8}, n in 2^{8, 13, 20, 24}, both tiles, both directions) on
DGX-A100, and the hierarchical engine on the F14 grid (BLS12-381-Fr,
N in {2, 4, 8} nodes of 8, 2^24 and 2^28) and the 2x4 / 4x2 test
shapes at 2^8-2^10 on a multi-node DGX-A100.  Every estimate priced
from the program must reproduce each value exactly.
"""

import json
from pathlib import Path

import pytest

from repro.field import ALL_FIELDS
from repro.hw.machines import DGX_A100
from repro.hw.multinode import MultiNodeMachine
from repro.hw.plancost import schedule_steps
from repro.hw.topology import infiniband
from repro.multigpu import HierarchicalUniNTTEngine, UniNTTEngine
from repro.multigpu.schedule import ablation_grid
from repro.sim import SimCluster

GOLDEN_PATH = Path(__file__).parent.parent / "data" / \
    "modeled_profiles.json"
FIELDS = {field.name: field for field in ALL_FIELDS}
ARMS = dict(ablation_grid())


def load_shapes():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def engine_and_machine(shape):
    field = FIELDS[shape["field"]]
    nodes, per_node = shape["nodes"], shape["per_node"]
    if shape["engine"] == "unintt":
        engine = UniNTTEngine(SimCluster(field, per_node),
                              tile=shape["tile"],
                              options=ARMS[shape["arm"]])
        return engine, DGX_A100.with_gpu_count(per_node)
    engine = HierarchicalUniNTTEngine(
        SimCluster(field, nodes * per_node, node_size=per_node),
        tile=shape["tile"])
    machine = MultiNodeMachine(
        name=f"{nodes}xDGX-A100", node=DGX_A100.with_gpu_count(per_node),
        node_count=nodes, network=infiniband())
    return engine, machine


def test_golden_covers_every_shape():
    shapes = load_shapes()
    flat = [s for s in shapes if s["engine"] == "unintt"]
    hier = [s for s in shapes if s["engine"] == "hierarchical"]
    assert len(flat) == 3 * 3 * 4 * len(ARMS) * 2 * 2
    assert {(s["nodes"], s["per_node"], s["log_n"]) for s in hier} \
        >= {(nodes, 8, log_n) for nodes in (2, 4, 8) for log_n in (24, 28)}


def test_profiles_reproduce_the_recorded_estimates():
    mismatches = []
    for shape in load_shapes():
        engine, machine = engine_and_machine(shape)
        cost = engine.estimate(machine, 1 << shape["log_n"],
                               inverse=shape["inverse"])
        got = {"total_s": repr(cost.total_s),
               "compute_s": repr(cost.compute_s),
               "memory_s": repr(cost.memory_s),
               "exchange_s": repr(cost.exchange_s),
               "exchange_bytes_by_level": dict(sorted(
                   cost.exchange_bytes_by_level.items()))}
        want = {key: shape[key] for key in got}
        if got != want:
            mismatches.append((shape, got))
    assert mismatches == []


@pytest.mark.parametrize("inverse", [False, True], ids=["fwd", "inv"])
@pytest.mark.parametrize("label,options", list(ARMS.items()),
                         ids=list(ARMS))
def test_unintt_profile_is_its_program(label, options, inverse):
    engine = UniNTTEngine(SimCluster(FIELDS["Goldilocks"], 4),
                          options=options)
    profile = engine.inverse_profile(1 << 10) if inverse \
        else engine.forward_profile(1 << 10)
    assert profile == schedule_steps(engine.program(1 << 10,
                                                    inverse=inverse))


@pytest.mark.parametrize("inverse", [False, True], ids=["fwd", "inv"])
@pytest.mark.parametrize("nodes,per_node", [(2, 4), (4, 2)])
def test_hierarchical_profile_is_its_program(nodes, per_node, inverse):
    engine = HierarchicalUniNTTEngine(SimCluster(
        FIELDS["BN254-Fr"], nodes * per_node, node_size=per_node))
    profile = engine.inverse_profile(1 << 9) if inverse \
        else engine.forward_profile(1 << 9)
    assert profile == schedule_steps(engine.program(1 << 9,
                                                    inverse=inverse))
