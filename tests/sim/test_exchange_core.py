"""Parity golden for the cluster collectives' exchange core.

``tests/data/collective_events.json`` was recorded before the five
collectives of :class:`repro.sim.SimCluster` (``all_to_all``,
``charge_all_to_all``, ``pairwise_exchange``, ``gather_to`` and
``scatter_from``) were rewritten as adapters over one exchange core.
It pins everything those bodies charged and traced, quirks included,
on a grid of

* each entry point,
* G in {4, 8} and ``node_size`` in {None, 2},
* no fault, ``corrupt-shard@0`` on GPU 0 and on GPU 1,
  ``transient-comm@0``, ``link-degrade@0``, ``straggler@0`` and
  ``device-death@1``,
* exchange checksums off and on

(280 cases).  Each case issues its collective twice (the second call
takes the precondition memo's hit path) and then one malformed call;
``pairwise_exchange`` first runs an identity partner map, so the
faults at step 0 hit self-partnered payloads (which still pass through
the corruption hook).  Per case
the golden stores the event tuples, the per-GPU counters, the
precondition hits and misses, the injector's penalty bytes, each
call's exception or a SHA-256 of what it returned, and a SHA-256 of
the final shards.  The ``gather_to``/``scatter_from`` entries on the
node-structured cluster (``-ns2-``) were re-recorded once, when those
collectives began tracing the bytes that cross a node boundary at
"multi-node" like every other collective: each call's total bytes and
everything else in those entries stayed as first recorded.

A structural test also pins that the device charges, the injector
hooks and the collective trace events of ``SimCluster`` are reached
only from the core.

Re-record (only when a behaviour change is intended and declared) with
``PYTHONPATH=src python tests/sim/test_exchange_core.py``.
"""

import ast
import hashlib
import inspect
import json
import random
from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.field import GOLDILOCKS
from repro.sim import SimCluster
from repro.sim.faults import FaultInjector, FaultPlan

GOLDEN_PATH = Path(__file__).parent.parent / "data" / \
    "collective_events.json"
F = GOLDILOCKS
ENTRY_POINTS = ("all_to_all", "charge_all_to_all", "pairwise_exchange",
                "gather_to", "scatter_from")
FAULTS = (None, "corrupt-shard@0", "corrupt-shard@0:gpu=1",
          "transient-comm@0", "link-degrade@0", "straggler@0:factor=3",
          "device-death@1")


CASES = {f"{entry}-G{g}-ns{node_size}-{fault or 'none'}-ck{checks}":
         (entry, g, node_size, fault, checks)
         for entry in ENTRY_POINTS
         for g in (4, 8)
         for node_size in (None, 2)
         for fault in FAULTS
         for checks in (0, 1)}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _values(rng, count):
    return [rng.randrange(F.modulus) for _ in range(count)]


def _calls(entry, g, rng):
    """The argument tuples of the calls one case issues, in order."""
    xor = [i ^ 1 for i in range(g)]
    if entry == "all_to_all":
        outboxes = [[_values(rng, 1 + (3 * src + dst) % 5)
                     for dst in range(g)] for src in range(g)]
        return [(outboxes,), (outboxes,), (outboxes[1:],)]
    if entry == "charge_all_to_all":
        counts = [[1 + (3 * src + dst) % 5 for dst in range(g)]
                  for src in range(g)]
        return [(counts,), (counts,), ([row[:-1] for row in counts],)]
    if entry == "pairwise_exchange":
        payloads = [_values(rng, 1 + (5 * i) % 7) for i in range(g)]
        return [(list(range(g)), payloads), (xor, payloads),
                (xor, payloads), ([1, 1] + xor[2:], payloads)]
    if entry == "gather_to":
        return [(0,), (0,), (g,)]
    shards = [_values(rng, 1 + (3 * i) % 5) for i in range(g)]
    return [(0, shards), (0, shards), (0, shards[1:])]


def run_case(case_id):
    """Run one grid case; return its JSON-able record."""
    entry, g, node_size, fault, checks = CASES[case_id]
    rng = random.Random(case_id)
    injector = None
    if fault is not None:
        injector = FaultInjector(FaultPlan.from_specs([fault], seed=3),
                                 modulus=F.modulus)
    cluster = SimCluster(F, g, node_size=node_size, injector=injector)
    cluster.checksum_exchanges = bool(checks)
    cluster.checksum_seed = 11
    cluster.load_shards([_values(rng, 1 + (2 * i) % 5) for i in range(g)])
    outcomes = []
    collective = getattr(cluster, entry)
    for index, args in enumerate(_calls(entry, g, rng)):
        try:
            result = collective(*args, detail=f"call-{index}")
        except SimulationError as error:
            outcomes.append([type(error).__name__, str(error)])
        else:
            outcomes.append(_digest(result))
    return {
        "calls": outcomes,
        "events": [[e.kind, e.level, e.max_bytes_per_gpu, e.total_bytes,
                    e.field_muls, e.detail, e.step]
                   for e in cluster.trace],
        "counters": [list(gpu.counters.snapshot().values())
                     for gpu in cluster.gpus],
        "preconditions": [cluster.precondition_hits,
                          cluster.precondition_misses],
        "penalty_bytes": (injector.penalty_exchange_bytes
                          if injector is not None else 0),
        "shards": _digest(cluster.peek_shards()),
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_covers_the_grid(golden):
    assert sorted(golden) == sorted(CASES)
    assert len(golden) == 280


@pytest.mark.parametrize("case_id", CASES)
def test_collective_matches_golden(golden, case_id):
    assert run_case(case_id) == golden[case_id]


def test_grid_exercises_every_outcome(golden):
    errors = {call[0] for record in golden.values()
              for call in record["calls"] if isinstance(call, list)}
    assert errors == {"SimulationError", "ShardCorruptionError",
                      "TransientCommError", "DeviceLostError"}
    levels = {event[1] for record in golden.values()
              for event in record["events"]}
    assert {"multi-gpu", "multi-node", "resilience"} <= levels
    assert any(record["penalty_bytes"] for record in golden.values())


def test_collectives_move_only_through_the_core():
    """Charges, injector hooks and collective trace events of
    ``SimCluster`` are reached only from ``_exchange``."""
    tree = ast.parse(inspect.getsource(SimCluster))
    hooks = {"charge_send", "charge_receive", "on_collective_start",
             "on_collective_end", "corrupt_inflight"}
    callers = {}
    for method in tree.body[0].body:
        if not isinstance(method, ast.FunctionDef):
            continue
        for node in ast.walk(method):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", ""))
            kind = next((kw.value for kw in node.keywords
                         if kw.arg == "kind"), None)
            if name in hooks or (name == "TraceEvent" and not (
                    isinstance(kind, ast.Constant)
                    and kind.value == "local-compute")):
                callers.setdefault(name, set()).add(method.name)
    assert set(callers) == hooks | {"TraceEvent"}
    assert all(names == {"_exchange"} for names in callers.values()), \
        callers


def record():
    golden = {case_id: run_case(case_id) for case_id in CASES}
    with open(GOLDEN_PATH, "w") as fh:
        fh.write("{\n")
        fh.write(",\n".join(f"{json.dumps(key)}: {json.dumps(value)}"
                            for key, value in golden.items()))
        fh.write("\n}\n")


if __name__ == "__main__":
    record()
