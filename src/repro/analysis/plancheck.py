"""Plan verifier: symbolic execution of a communication schedule.

The verifier walks a :class:`~repro.multigpu.schedule.CommSchedule`
without running the simulator.  Each GPU shard carries a *dataflow tag*
— the name of the pass that last produced it — and every op declares
the tag it consumes and the tag it produces.  Walking the op list with
this one piece of state is enough to decide the schedule-level bugs
that silently corrupt a multi-GPU NTT:

* **read-before-write** — an op consumes a tag no prior op produced on
  that shard (a kernel launched before the exchange it depends on);
* **lost / duplicated transfers** — an exchange delivers fewer or more
  bytes to a destination than its layout relayout requires;
* **deadlock** — a pairwise stage whose partner map is not an
  involution, leaving GPUs waiting on peers that are not waiting back;
* **level mismatch** — a collective charged to a hierarchy level the
  machine model does not have (or to a non-exchange level);
* **cost-model violations** — non-finite or negative charges from
  :func:`repro.hw.plancost.price_plan`, or schedule byte totals that
  disagree with the plan-cost closed form.

:func:`seed_bug` injects each bug class deliberately; the test suite
uses it to prove every detector actually fires.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

from repro.analysis.findings import Check, Finding
from repro.multigpu import accounting as acct
from repro.multigpu.schedule import (
    ALL_ON, CommSchedule, ExchangeOp, LocalOp, PairwiseOp, UniNTTOptions,
)

__all__ = ["CHECKS", "SEED_BUGS", "verify_schedule", "check_cost",
           "analyze_plan", "seed_bug"]

CHECKS = (
    Check("plan.read-before-write", 1,
          "an op consumes a shard no prior op produced"),
    Check("plan.lost-transfer", 1,
          "an exchange delivers fewer bytes than the relayout requires"),
    Check("plan.duplicate-transfer", 1,
          "an exchange delivers more bytes than the relayout requires"),
    Check("plan.deadlock", 1,
          "a pairwise partner map is not an involution (wait cycle)"),
    Check("plan.level-mismatch", 1,
          "an op is charged to a level the machine/topology lacks"),
    Check("plan.bad-transfer", 1,
          "a transfer is malformed (negative bytes, bad endpoints)"),
    Check("plan.cost-invariant", 1,
          "a priced plan violates PlanCost.validate() invariants"),
    Check("plan.cost-mismatch", 1,
          "schedule exchange bytes disagree with hw.plancost"),
)

#: Fault kinds :func:`seed_bug` can inject.
SEED_BUGS = ("drop-transfer", "duplicate-transfer", "reorder",
             "wrong-level", "deadlock", "bad-fusion")

#: Tag a shard carries after a broken exchange: nothing downstream may
#: legitimately consume it.
_STALE = "<stale>"

#: Levels a collective may ride: the inter-device fabrics.
_EXCHANGE_LEVELS = frozenset({"multi-gpu", "multi-node"})


class _OpFindings:
    """Append shim tying each finding to the op index it was found at.

    :func:`verify_schedule` sorts its findings into a canonical
    (op index, check, message) order before returning; this keeps the
    emission sites unchanged while recording the primary sort key.
    """

    def __init__(self, recorded: list, index: int):
        self._recorded = recorded
        self._index = index

    def append(self, finding: Finding) -> None:
        self._recorded.append((self._index, finding))


def verify_schedule(schedule: CommSchedule, machine=None) -> list[Finding]:
    """Symbolically walk ``schedule``; return every violation found.

    ``machine`` (a :class:`~repro.hw.model.MachineModel`, optional)
    enables the level checks: every op's level must name a level the
    machine actually has.

    Findings are returned in a canonical order — sorted by (op index,
    check id, message) — so rendered and ``--json`` output is
    byte-reproducible across runs and refactors of the walk itself.
    """
    recorded: list[tuple[int, Finding]] = []
    g = schedule.num_gpus
    tags = ["input"] * g

    level_names = None
    if machine is not None:
        level_names = {spec.name
                       for spec in machine.levels(schedule.element_bytes)}

    def read_all_shards(op, index: int, where: str) -> None:
        stale = sorted(s for s in range(g) if tags[s] != op.consumes)
        if stale:
            found = sorted({tags[s] for s in stale})
            recorded.append((index, Finding(
                "plan.read-before-write",
                f"consumes {op.consumes!r} but GPU(s) {stale} hold "
                f"{', '.join(repr(t) for t in found)}", where)))

    for index, op in enumerate(schedule.ops):
        where = f"{schedule.name}.ops[{index}]({op.name})"
        findings = _OpFindings(recorded, index)

        if level_names is not None and op.level not in level_names:
            findings.append(Finding(
                "plan.level-mismatch",
                f"level {op.level!r} does not exist on {machine.name}",
                where))

        if isinstance(op, LocalOp):
            read_all_shards(op, index, where)
            tags = [op.produces] * g
            continue

        # Collectives must ride an inter-device fabric.
        if op.level not in _EXCHANGE_LEVELS:
            findings.append(Finding(
                "plan.level-mismatch",
                f"collective charged to non-exchange level {op.level!r}",
                where))

        if isinstance(op, ExchangeOp):
            for t in op.transfers:
                if (t.nbytes < 0 or t.src == t.dst
                        or not 0 <= t.src < g or not 0 <= t.dst < g):
                    findings.append(Finding(
                        "plan.bad-transfer",
                        f"malformed transfer {t.src}->{t.dst} "
                        f"({t.nbytes} bytes)", where))
            read_all_shards(op, index, where)
            received = op.received_bytes_per_gpu(g)
            stale_dsts = set()
            for dst in range(g):
                expected = op.expected_in_bytes[dst]
                if received[dst] < expected:
                    findings.append(Finding(
                        "plan.lost-transfer",
                        f"GPU {dst} receives {received[dst]} of "
                        f"{expected} expected bytes", where))
                    stale_dsts.add(dst)
                elif received[dst] > expected:
                    findings.append(Finding(
                        "plan.duplicate-transfer",
                        f"GPU {dst} receives {received[dst]} bytes, "
                        f"{received[dst] - expected} more than the "
                        f"relayout sends", where))
            tags = [_STALE if s in stale_dsts else op.produces
                    for s in range(g)]
            continue

        assert isinstance(op, PairwiseOp)
        if op.bytes_per_gpu < 0:
            findings.append(Finding(
                "plan.bad-transfer",
                f"negative payload {op.bytes_per_gpu} bytes", where))
        cycles = _wait_cycles(op.partner_of, g)
        for cycle in cycles:
            chain = " -> ".join(str(s) for s in cycle + (cycle[0],))
            findings.append(Finding(
                "plan.deadlock",
                f"partner map is not an involution: wait cycle "
                f"{chain}", where))
        # Catch chains that end in a valid pair/fixed point without
        # forming a cycle themselves (i waits on j, j ignores i).
        in_cycle = {s for cycle in cycles for s in cycle}
        stranded = sorted(
            s for s in range(g) if s not in in_cycle
            and (not 0 <= op.partner_of[s] < g
                 or op.partner_of[op.partner_of[s]] != s))
        if stranded:
            findings.append(Finding(
                "plan.deadlock",
                f"GPU(s) {stranded} wait on partners that are not "
                f"waiting back", where))
        deadlocked = bool(cycles or stranded)
        read_all_shards(op, index, where)
        # A deadlocked stage never completes: nothing is produced.
        tags = [_STALE] * g if deadlocked else [op.produces] * g

    recorded.sort(key=lambda item: (item[0], item[1].check,
                                    item[1].message))
    return [finding for _, finding in recorded]


def _wait_cycles(partner_of: tuple[int, ...],
                 g: int) -> list[tuple[int, ...]]:
    """Cycles of GPUs waiting on peers that are not waiting back.

    A healthy partner map is an involution: every cycle of the
    functional graph ``i -> partner_of[i]`` has length 1 (self, a
    no-op) or 2 (a matched pair).  Longer cycles — and edges leaving
    the valid range — are reported, each once, smallest member first.
    """
    cycles: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for start in range(g):
        if start in seen:
            continue
        if not 0 <= partner_of[start] < g:
            # A bad edge is not a cycle; the stranded-GPU check in
            # verify_schedule reports it.
            seen.add(start)
            continue
        # Walk the orbit of `start`; stop at a revisit or a bad edge.
        orbit = [start]
        node = partner_of[start]
        while node not in orbit and node not in seen \
                and 0 <= partner_of[node] < g:
            orbit.append(node)
            node = partner_of[node]
        seen.update(orbit)
        if node == start and len(orbit) > 2:
            cycles.append(tuple(orbit))
    return cycles


def check_cost(machine, field, n: int,
               schedule: CommSchedule | None = None,
               delta=None) -> list[Finding]:
    """Price the multi-GPU split and check the cost-model invariants.

    Builds the one-exchange plan the schedule corresponds to (a single
    ``multi-gpu``-tagged split), runs
    :meth:`~repro.hw.plancost.PlanCost.validate`, checks the priced
    per-unit bytes against the closed-form accounting, and — when a
    schedule is supplied — checks the schedule's total exchange bytes
    against the plan cost (per-unit bytes x GPUs x exchanges).

    ``delta`` (a :class:`~repro.analysis.passes.ScheduleDelta`,
    optional) re-validates a *declared* accounting change: a
    synthesized schedule whose staging legitimately shifts bytes
    between levels must still land exactly on flat-plan bytes plus its
    declaration, per level — an undeclared drift is a cost mismatch.
    """
    from repro.hw.plancost import price_plan
    from repro.ntt.plan import leaf, split

    g = machine.gpu_count
    m = n // g
    where = f"{machine.name} n={n}"
    plan = split(leaf(g), leaf(m), level="multi-gpu")
    cost = price_plan(machine, field, plan)

    findings = [Finding("plan.cost-invariant", problem, where)
                for problem in cost.validate()]

    if schedule is not None:
        eb = schedule.element_bytes
    else:
        from repro.hw.cost import field_limbs
        eb = field_limbs(field) * 8
    per_unit = cost.exchange_bytes_by_level.get("multi-gpu", 0)
    formula = acct.alltoall_bytes_per_gpu(m, g, eb)
    if per_unit != formula:
        findings.append(Finding(
            "plan.cost-mismatch",
            f"plancost per-unit bytes {per_unit} != accounting "
            f"formula {formula}", where))

    if schedule is not None:
        declared = delta.bytes_dict() if delta is not None else {}
        exchanges = [op for op in schedule.collective_ops()
                     if op.level == "multi-gpu"]
        expected = (per_unit * g * len(exchanges)
                    + declared.get("multi-gpu", 0))
        actual = schedule.bytes_by_level().get("multi-gpu", 0)
        if expected != actual:
            findings.append(Finding(
                "plan.cost-mismatch",
                f"schedule moves {actual} multi-gpu bytes but plancost "
                f"prices {expected} ({len(exchanges)} exchange(s))",
                where))
        for level in sorted(set(declared) - {"multi-gpu"}):
            level_actual = schedule.bytes_by_level().get(level, 0)
            if level_actual != declared[level]:
                findings.append(Finding(
                    "plan.cost-mismatch",
                    f"schedule moves {level_actual} {level} bytes but "
                    f"declares {declared[level]}", where))
    return findings


def seed_bug(schedule: CommSchedule, kind: str) -> CommSchedule:
    """Inject one deliberate bug into a (correct) schedule.

    Fault kinds (:data:`SEED_BUGS`):

    * ``drop-transfer`` — delete one message from the first exchange
      (caught as a lost transfer *and* a downstream read-before-write);
    * ``duplicate-transfer`` — send one message twice;
    * ``reorder`` — swap the first two ops (dependency inversion);
    * ``wrong-level`` — charge the first collective to the ``gpu``
      level;
    * ``deadlock`` — replace the first pairwise partner map with a
      rotation (a ``G``-cycle, the canonical non-involution);
    * ``bad-fusion`` — merge two local ops *across* an intervening
      collective, the way a buggy peephole pass would: the collective
      is left consuming a tag nothing produces any more (caught as a
      read-before-write at the collective).
    """
    ops = list(schedule.ops)

    def first(op_type):
        for i, op in enumerate(ops):
            if isinstance(op, op_type):
                return i
        raise ValueError(
            f"schedule {schedule.name} has no {op_type.__name__} to "
            f"corrupt with {kind!r}")

    if kind == "drop-transfer":
        i = first(ExchangeOp)
        ops[i] = replace(ops[i], transfers=ops[i].transfers[:-1])
    elif kind == "duplicate-transfer":
        i = first(ExchangeOp)
        ops[i] = replace(ops[i],
                         transfers=ops[i].transfers
                         + (ops[i].transfers[0],))
    elif kind == "reorder":
        if len(ops) < 2:
            raise ValueError("schedule too short to reorder")
        ops[0], ops[1] = ops[1], ops[0]
    elif kind == "wrong-level":
        i = first((ExchangeOp, PairwiseOp))
        ops[i] = replace(ops[i], level="gpu")
    elif kind == "deadlock":
        i = first(PairwiseOp)
        g = schedule.num_gpus
        ops[i] = replace(ops[i],
                         partner_of=tuple((s + 1) % g for s in range(g)))
    elif kind == "bad-fusion":
        local_indices = [i for i, op in enumerate(ops)
                         if isinstance(op, LocalOp)]
        pair = next(((a, b) for a, b in zip(local_indices,
                                            local_indices[1:])
                     if b > a + 1), None)
        if pair is None:
            raise ValueError(
                f"schedule {schedule.name} has no local ops separated "
                f"by a collective to mis-fuse with {kind!r}")
        a, b = pair
        head, tail = ops[a], ops[b]
        ops[a] = LocalOp(
            name=f"{head.name}+{tail.name}", consumes=head.consumes,
            produces=tail.produces, level=head.level,
            field_muls_per_gpu=(head.field_muls_per_gpu
                                + tail.field_muls_per_gpu),
            mem_bytes_per_gpu=(head.mem_bytes_per_gpu
                               + tail.mem_bytes_per_gpu))
        del ops[b]
    else:
        raise ValueError(f"unknown seed bug {kind!r}; "
                         f"choose from {SEED_BUGS}")
    return schedule.with_ops(tuple(ops))


def analyze_plan(n: int, gpu_count: int, field, engine: str = "unintt",
                 options: UniNTTOptions = ALL_ON, machine=None,
                 seed_bugs: tuple[str, ...] = (),
                 ) -> tuple[CommSchedule, list[Finding]]:
    """Take, optionally corrupt, and verify one engine's program.

    The one-call entry the CLI and tests use: ``engine`` (``unintt``
    with ``options``, ``pairwise`` or ``baseline``) on ``gpu_count``
    GPUs supplies its ``program(n)``.  Returns the (possibly corrupted)
    schedule with every finding from the symbolic walk and — given a
    ``machine``, for all-to-all programs — the cost checks.
    """
    from repro.multigpu import (
        BaselineFourStepEngine, PairwiseExchangeEngine, UniNTTEngine,
    )
    from repro.sim import SimCluster

    engines = {"unintt": partial(UniNTTEngine, options=options),
               "pairwise": PairwiseExchangeEngine,
               "baseline": BaselineFourStepEngine}
    if engine not in engines:
        raise ValueError(f"unknown engine {engine!r}; "
                         f"choose from {', '.join(engines)}")
    schedule = engines[engine](SimCluster(field, gpu_count)).program(n)
    for kind in seed_bugs:
        schedule = seed_bug(schedule, kind)
    findings = verify_schedule(schedule, machine=machine)
    if machine is not None and not any(
            isinstance(op, PairwiseOp) for op in schedule.ops):
        findings.extend(check_cost(machine, field, n, schedule=schedule))
    return schedule, findings
