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

``tests/data/comparison_profiles.json`` holds the same figures for the
comparison engines' closed-form profiles, recorded before the pairwise
and baseline engines became their programs: both engines, both
directions, on every preset machine cut to G in {2, 4, 8} GPUs, three
fields, tiles 1024 and 4096 and every size 2^8-2^28.  Each row is
``[engine, machine, field, G, tile, log2 n, inverse, total_s,
compute_s, memory_s, exchange_s, bytes by level]``.  Everything must
match exactly but the pairwise ``total_s``: a closed-form ``stage-i``
phase is now a swap phase plus a combine phase, whose seconds add in
a different order (within 1e-15 relative).
"""

import json
from pathlib import Path

import pytest

from repro.field import ALL_FIELDS
from repro.hw.machines import ALL_MACHINES, DGX_A100
from repro.hw.multinode import MultiNodeMachine
from repro.hw.plancost import schedule_steps
from repro.hw.topology import infiniband
from repro.multigpu import (
    BaselineFourStepEngine, HierarchicalUniNTTEngine,
    PairwiseExchangeEngine, UniNTTEngine,
)
from repro.multigpu.schedule import ablation_grid
from repro.sim import SimCluster

GOLDEN_PATH = Path(__file__).parent.parent / "data" / \
    "modeled_profiles.json"
COMPARISON_PATH = GOLDEN_PATH.with_name("comparison_profiles.json")
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


COMPARISON_ENGINES = {"pairwise": PairwiseExchangeEngine,
                      "baseline": BaselineFourStepEngine}
MACHINES = {machine.name: machine for machine in ALL_MACHINES}


def load_comparison_rows():
    with open(COMPARISON_PATH) as fh:
        return json.load(fh)


def test_comparison_golden_covers_every_shape():
    rows = load_comparison_rows()
    shapes = {tuple(row[:7]) for row in rows}
    assert len(shapes) == len(rows)
    assert shapes == {
        (engine, machine, field, g, tile, log_n, inverse)
        for engine in COMPARISON_ENGINES for machine in MACHINES
        for field in ("Goldilocks", "BN254-Fr", "BLS12-381-Fr")
        for g in (2, 4, 8) for tile in (1024, 4096)
        for log_n in range(8, 29) for inverse in (False, True)}


@pytest.mark.parametrize("engine_name", list(COMPARISON_ENGINES))
def test_comparison_profiles_reproduce_the_recorded_estimates(engine_name):
    mismatches = []
    for row in load_comparison_rows():
        engine, machine, field, g, tile, log_n, inverse = row[:7]
        if engine != engine_name:
            continue
        cost = COMPARISON_ENGINES[engine](
            SimCluster(FIELDS[field], g), tile=tile).estimate(
                MACHINES[machine].with_gpu_count(g), 1 << log_n,
                inverse=inverse)
        got = [repr(cost.compute_s), repr(cost.memory_s),
               repr(cost.exchange_s),
               dict(sorted(cost.exchange_bytes_by_level.items()))]
        total = float(row[7])
        if engine == "pairwise":
            total_ok = abs(cost.total_s - total) <= 1e-15 * total
        else:
            total_ok = repr(cost.total_s) == row[7]
        if got != row[8:] or not total_ok:
            mismatches.append((row, repr(cost.total_s), got))
    assert mismatches == []


@pytest.mark.parametrize("inverse", [False, True], ids=["fwd", "inv"])
@pytest.mark.parametrize("engine_cls", list(COMPARISON_ENGINES.values()),
                         ids=list(COMPARISON_ENGINES))
def test_comparison_profile_is_its_program(engine_cls, inverse):
    engine = engine_cls(SimCluster(FIELDS["BN254-Fr"], 4))
    profile = engine.inverse_profile(1 << 10) if inverse \
        else engine.forward_profile(1 << 10)
    assert profile == schedule_steps(engine.program(1 << 10,
                                                    inverse=inverse))
