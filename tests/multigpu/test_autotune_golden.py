"""Planning golden: the tuners keep every choice and every second.

``tests/data/autotune_rows.json`` was recorded while a closed-form
Plan-tree pricer still lived next to the program pricer, before the
closed form was deleted.  It holds, for every preset machine and
multi-node cluster, three fields and 2^16 / 2^20 / 2^24 points:

* ``tiles``: :func:`autotune_tile`'s ``(tile, seconds)``;
* ``engines``: the :func:`select_engine` ranking (name, seconds,
  bottleneck), in rank order;
* ``schedules``: every :func:`select_schedule` candidate with its
  overlap-aware seconds and its sequential ``PlanCost`` fields;

and ``f17``: F17's machine, field, "best tile" and "UniNTT ms" cells.
Floats are stored as ``repr`` strings; everything must match exactly.
"""

import json
from pathlib import Path

from repro.field import BLS12_381_FR, BN254_FR, GOLDILOCKS
from repro.hw import ALL_CLUSTERS, ALL_MACHINES
from repro.multigpu import autotune_tile, select_engine, select_schedule

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "autotune_rows.json"
MACHINES = list(ALL_MACHINES) + list(ALL_CLUSTERS)
FIELDS = (GOLDILOCKS, BN254_FR, BLS12_381_FR)
LOG_SIZES = (16, 20, 24)


def shapes():
    for machine in MACHINES:
        for field in FIELDS:
            for log_n in LOG_SIZES:
                yield machine, field, log_n


def tile_rows():
    rows = []
    for machine, field, log_n in shapes():
        tile, seconds = autotune_tile(machine, field, 1 << log_n)
        rows.append([machine.name, field.name, log_n, tile, repr(seconds)])
    return rows


def engine_rows():
    return [[machine.name, field.name, log_n,
             [[c.name, repr(c.seconds), c.bottleneck]
              for c in select_engine(machine, field, 1 << log_n)]]
            for machine, field, log_n in shapes()]


def schedule_rows():
    rows = []
    for machine, field, log_n in shapes():
        ranked = []
        for choice in select_schedule(machine, field, 1 << log_n):
            cost = choice.cost
            ranked.append([
                choice.name, repr(choice.seconds), choice.synthesized,
                repr(cost.total_s), repr(cost.compute_s),
                {k: repr(v) for k, v in
                 sorted(cost.exchange_s_by_level.items())},
                dict(sorted(cost.exchange_bytes_by_level.items())),
                cost.butterfly_muls])
        rows.append([machine.name, field.name, log_n, ranked])
    return rows


def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_covers_every_shape():
    golden = load_golden()
    want = [[m.name, f.name, log_n] for m, f, log_n in shapes()]
    for key in ("tiles", "engines", "schedules"):
        assert [row[:3] for row in golden[key]] == want
    assert len(golden["f17"]) == 2 * len(ALL_MACHINES)


def test_autotune_tile_is_unchanged():
    assert tile_rows() == load_golden()["tiles"]


def test_select_engine_rankings_are_unchanged():
    assert engine_rows() == load_golden()["engines"]


def test_select_schedule_costs_are_unchanged():
    assert schedule_rows() == load_golden()["schedules"]


def test_f17_tile_and_time_columns_are_unchanged():
    from repro.bench.runners import autotune_table

    headers, rows = autotune_table()
    assert headers[:4] == ["machine", "field", "best tile", "UniNTT ms"]
    got = [[row[0], row[1], row[2], repr(row[3])] for row in rows]
    assert got == load_golden()["f17"]
