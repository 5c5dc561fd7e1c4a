"""Crash consistency for the proof server: journal, snapshots, recovery.

The serving loop of :class:`~repro.serve.scheduler.ProofServer` is a
single process; if it dies mid-batch, every admitted request, cache
entry, and in-flight dispatch dies with it.  This module makes the
server crash-consistent the way production proof-serving systems are:

* :class:`WriteAheadJournal` — an append-only log of checksummed
  :class:`JournalRecord` entries keyed to the
  :class:`~repro.runtime.clock.VirtualClock`.  The server writes a record
  *before* each externally visible state change (``admit``, ``reject``,
  ``shed``, ``dispatch``) and *after* each completion (``emit``,
  ``complete``), so the journal always brackets the truth: anything
  dispatched but not emitted is an orphan the next incarnation must
  finish.
* :class:`ServerSnapshot` — a periodic checkpoint of queue, handled-id
  set, batch counter, and cache/ledger keys, stored as an ordinary
  ``snapshot`` journal record.  Snapshots are only taken at quiescent
  points (between dispatches), so a snapshot never captures in-flight
  state.
* :class:`RecoveryManager` — verifies the journal (sequence gaps and
  checksum mismatches raise :class:`~repro.errors.JournalError`),
  restores the latest snapshot, replays the journal tail, and resumes a
  fresh server with a :class:`ResumeState`: orphaned requests are
  re-admitted **exactly once**, already-emitted requests are never
  re-run, and the recovered run's outputs are bit-identical to an
  uninterrupted run's (requests carry seeds, not data, so re-execution
  is a pure function).
* :func:`serve_durably` — the run-to-completion driver: serve, catch
  :class:`~repro.errors.ServerCrashError`, recover, repeat until the
  workload drains; returns a :class:`RecoveryOutcome` merging the
  results every incarnation emitted.

Pricing: journal appends and snapshots are charged off the critical
path (group commit) into ``ServeReport.journal_s``; recovery downtime
— replaying the tail and restoring the snapshot — advances the virtual
clock and lands in ``ServeReport.recovery_s``.  Both fold into the
report's validating :class:`~repro.hw.plancost.PlanCost`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Iterator, Sequence

from repro.errors import JournalError, ServeError, ServerCrashError
from repro.field.packed import value_words
from repro.field.prime_field import PrimeField
from repro.serve.report import ServeReport
from repro.serve.request import ProofRequest, RequestResult

__all__ = [
    "JOURNAL_KINDS", "JOURNAL_MESSAGES", "RECOVER_MESSAGES",
    "REPLAY_MESSAGES_PER_RECORD", "SNAPSHOT_MESSAGES",
    "JournalRecord", "WriteAheadJournal", "ServerSnapshot",
    "ResumeState", "RecoveryManager", "RecoveryOutcome",
    "output_digest", "replay_journal", "serve_durably",
]

#: The closed vocabulary of journal record kinds, in lifecycle order.
#: ``steal`` is written by the *victim* of a cross-replica work steal:
#: the request left this journal's queue but was re-admitted (and
#: re-journaled) on the thief, so replay removes it here without
#: marking it handled.
JOURNAL_KINDS = ("admit", "reject", "shed", "dispatch", "emit",
                 "complete", "snapshot", "recover", "steal")

#: Fabric latency units one journal append costs (group commit: the
#: record is durable before the state change it guards is visible).
JOURNAL_MESSAGES = 1

#: Fabric latency units one snapshot costs (serialize + fsync).
SNAPSHOT_MESSAGES = 8

#: Fixed fabric latency units one recovery costs (open the journal,
#: restore the latest snapshot).
RECOVER_MESSAGES = 8

#: Additional latency units per journal-tail record replayed.
REPLAY_MESSAGES_PER_RECORD = 2


def _checksum(seq: int, t_s: float, kind: str, payload_json: str) -> str:
    blob = f"{seq}|{t_s!r}|{kind}|{payload_json}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def output_digest(field: PrimeField, outputs: Sequence[Sequence[int]],
                  words: Sequence | None = None) -> str:
    """Stable short digest of a request's output lanes (for ``emit``).

    SHA-256 over every lane's values as fixed-width little-endian
    64-bit words (:func:`repro.field.packed.value_words` per value),
    lane after lane.  ``words``, if given, holds each lane's already
    encoded words (a buffer, such as the ``<u8`` array a lane unpack
    builds), or ``None`` for a lane to encode from its values.
    """
    width = 8 * value_words(field)
    digest = hashlib.sha256()
    for lane, encoded in zip(outputs, words or [None] * len(outputs),
                             strict=True):
        digest.update(encoded if encoded is not None else b"".join(
            v.to_bytes(width, "little") for v in lane))
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class JournalRecord:
    """One append-only journal entry.

    Attributes
    ----------
    seq:
        Sequence number; contiguous from 0 with no gaps.
    t_s:
        Virtual-clock timestamp the record was written at.
    kind:
        One of :data:`JOURNAL_KINDS`.
    payload:
        JSON-serializable record body (round-tripped through ``json``
        at append time, so what is stored is exactly what replays).
    checksum:
        Truncated SHA-256 over ``(seq, t_s, kind, payload)``; verified
        by :meth:`WriteAheadJournal.verify` before any recovery.
    """

    seq: int
    t_s: float
    kind: str
    payload: dict
    checksum: str


class WriteAheadJournal:
    """Append-only, checksummed, replayable server log.

    The journal object deliberately lives *outside* the server: a
    simulated crash destroys the server (queue, caches, trace, report)
    but not the journal, exactly like a process dying above a durable
    log file.
    """

    def __init__(self) -> None:
        self.records: list[JournalRecord] = []
        self._last_snapshot_seq = -1

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[JournalRecord]:
        return iter(self.records)

    @property
    def next_seq(self) -> int:
        return len(self.records)

    @property
    def records_since_snapshot(self) -> int:
        """Records appended after the latest ``snapshot`` record."""
        return len(self.records) - (self._last_snapshot_seq + 1)

    def append(self, kind: str, payload: dict, *,
               t_s: float) -> JournalRecord:
        """Append one checksummed record; returns it."""
        if kind not in JOURNAL_KINDS:
            raise JournalError(
                f"unknown journal record kind {kind!r}; known: "
                f"{', '.join(JOURNAL_KINDS)}")
        try:
            payload_json = json.dumps(payload, sort_keys=True)
        except (TypeError, ValueError) as error:
            raise JournalError(
                f"journal payload for {kind!r} is not JSON-serializable: "
                f"{error}") from error
        seq = len(self.records)
        record = JournalRecord(
            seq=seq, t_s=float(t_s), kind=kind,
            payload=json.loads(payload_json),
            checksum=_checksum(seq, float(t_s), kind, payload_json))
        self.records.append(record)
        if kind == "snapshot":
            self._last_snapshot_seq = seq
        return record

    def verify(self) -> None:
        """Raise :class:`JournalError` on any gap or checksum mismatch."""
        for index, record in enumerate(self.records):
            if record.seq != index:
                raise JournalError(
                    f"journal gap: record at position {index} carries "
                    f"seq {record.seq}")
            payload_json = json.dumps(record.payload, sort_keys=True)
            expected = _checksum(record.seq, record.t_s, record.kind,
                                 payload_json)
            if record.checksum != expected:
                raise JournalError(
                    f"journal record {record.seq} ({record.kind}) fails "
                    f"its checksum: stored {record.checksum}, computed "
                    f"{expected}")

    def latest_snapshot(self) -> JournalRecord | None:
        """The most recent ``snapshot`` record, or ``None``."""
        for record in reversed(self.records):
            if record.kind == "snapshot":
                return record
        return None

    def tail(self, after_seq: int) -> list[JournalRecord]:
        """Records strictly after ``after_seq``, in order."""
        return [r for r in self.records if r.seq > after_seq]

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {"records": [
                {"seq": r.seq, "t_s": r.t_s, "kind": r.kind,
                 "payload": r.payload, "checksum": r.checksum}
                for r in self.records]},
            indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "WriteAheadJournal":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise JournalError(
                f"journal is not valid JSON: {error}") from error
        if not isinstance(data, dict) \
                or not isinstance(data.get("records"), list):
            raise JournalError(
                "journal JSON must be an object with a 'records' list")
        journal = cls()
        for entry in data["records"]:
            try:
                record = JournalRecord(
                    seq=int(entry["seq"]), t_s=float(entry["t_s"]),
                    kind=str(entry["kind"]), payload=dict(entry["payload"]),
                    checksum=str(entry["checksum"]))
            except (KeyError, TypeError, ValueError) as error:
                raise JournalError(
                    f"malformed journal record: {error}") from error
            journal.records.append(record)
            if record.kind == "snapshot":
                journal._last_snapshot_seq = record.seq
        journal.verify()
        return journal


@dataclass(frozen=True)
class ServerSnapshot:
    """Quiescent-point checkpoint of the server's in-memory state."""

    t_s: float
    queued: tuple[dict, ...]
    handled_ids: tuple[int, ...]
    next_batch_id: int
    plan_keys: tuple[tuple[str, str, int, str, str], ...]
    twiddle_shapes: tuple[tuple[str, int, str], ...]

    def to_payload(self) -> dict:
        return {
            "t_s": self.t_s,
            "queued": list(self.queued),
            "handled_ids": list(self.handled_ids),
            "next_batch_id": self.next_batch_id,
            "plan_keys": [list(k) for k in self.plan_keys],
            "twiddle_shapes": [list(s) for s in self.twiddle_shapes],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ServerSnapshot":
        try:
            return cls(
                t_s=float(payload["t_s"]),
                queued=tuple(dict(q) for q in payload["queued"]),
                handled_ids=tuple(int(i)
                                  for i in payload["handled_ids"]),
                next_batch_id=int(payload["next_batch_id"]),
                plan_keys=tuple(tuple(k) for k in payload["plan_keys"]),
                twiddle_shapes=tuple(
                    tuple(s) for s in payload["twiddle_shapes"]))
        except (KeyError, TypeError, ValueError) as error:
            raise JournalError(
                f"malformed snapshot payload: {error}") from error


@dataclass(frozen=True)
class ResumeState:
    """Everything a fresh server needs to continue a crashed run.

    Built by :meth:`RecoveryManager.resume_state` from the latest
    snapshot plus the journal tail, and consumed by
    ``ProofServer.serve(requests, resume=...)``.
    """

    clock_s: float
    crash_seq: int
    replayed_records: int
    queued: tuple[ProofRequest, ...]
    handled_ids: frozenset[int]
    next_batch_id: int
    plan_keys: tuple[tuple[str, str, int, str, str], ...] = ()
    twiddle_shapes: tuple[tuple[str, int, str], ...] = ()


@dataclass
class RecoveryOutcome:
    """Merged account of a :func:`serve_durably` run."""

    report: ServeReport
    legs: list[ServeReport] = dataclass_field(default_factory=list)
    results: list[RequestResult] = dataclass_field(default_factory=list)
    recoveries: int = 0
    server: object = None

    @property
    def crashed(self) -> bool:
        return self.recoveries > 0


def replay_journal(journal: WriteAheadJournal) -> ResumeState:
    """Verify and replay a journal into a :class:`ResumeState`.

    The replay partitions request ids into *handled* (emitted,
    rejected, or shed — never to be touched again) and *orphaned*
    (admitted or mid-dispatch at the journal's end — to be re-admitted
    exactly once).  Both :meth:`RecoveryManager.resume_state` (single-
    server crash recovery) and the fleet's journaled failover
    (:mod:`repro.serve.fleet`) are this function: failover is simply
    replaying a fenced replica's journal and re-routing the orphans.
    """
    journal.verify()
    if not len(journal):
        raise JournalError("cannot recover from an empty journal")

    snapshot_record = journal.latest_snapshot()
    queued: dict[int, dict] = {}
    handled: set[int] = set()
    inflight: dict[int, dict[int, dict]] = {}
    next_batch_id = 0
    plan_keys: tuple = ()
    twiddle_shapes: tuple = ()
    after_seq = -1
    if snapshot_record is not None:
        snapshot = ServerSnapshot.from_payload(snapshot_record.payload)
        for record in snapshot.queued:
            queued[int(record["request_id"])] = record
        handled.update(snapshot.handled_ids)
        next_batch_id = snapshot.next_batch_id
        plan_keys = snapshot.plan_keys
        twiddle_shapes = snapshot.twiddle_shapes
        after_seq = snapshot_record.seq

    replayed = 0
    for record in journal.tail(after_seq):
        replayed += 1
        payload = record.payload
        if record.kind == "admit":
            request = dict(payload["request"])
            queued[int(request["request_id"])] = request
        elif record.kind in ("reject", "shed"):
            request_id = int(payload["request_id"])
            handled.add(request_id)
            queued.pop(request_id, None)
        elif record.kind == "steal":
            # The request moved to another replica's queue (and was
            # journaled there as a fresh admit); it is no longer this
            # journal's responsibility but is NOT handled — the thief
            # finishes it.
            queued.pop(int(payload["request_id"]), None)
        elif record.kind == "dispatch":
            batch_id = int(payload["batch_id"])
            members: dict[int, dict] = {}
            for request_id in payload["request_ids"]:
                request_id = int(request_id)
                member = queued.pop(request_id, None)
                if member is None:
                    raise JournalError(
                        f"journal record {record.seq} dispatches "
                        f"request {request_id} that was never "
                        "admitted")
                members[request_id] = member
            inflight[batch_id] = members
            next_batch_id = max(next_batch_id, batch_id + 1)
        elif record.kind == "emit":
            request_id = int(payload["request_id"])
            handled.add(request_id)
            for members in inflight.values():
                members.pop(request_id, None)
        elif record.kind == "complete":
            batch_id = int(payload["batch_id"])
            leftovers = inflight.pop(batch_id, {})
            missing = sorted(set(leftovers) - handled)
            if missing:
                raise JournalError(
                    f"journal record {record.seq} completes batch "
                    f"{batch_id} but requests {missing} were never "
                    "emitted")
        elif record.kind == "recover":
            # An earlier incarnation already recovered here: it
            # moved every unemitted in-flight request back into its
            # queue, so the replay must do the same or a later
            # re-dispatch of those requests would look like a
            # dispatch of never-admitted work.
            for batch_id in sorted(inflight):
                for request_id, member in sorted(
                        inflight[batch_id].items()):
                    if request_id not in handled:
                        queued[request_id] = member
            inflight.clear()
        # "snapshot" cannot appear after the latest snapshot by
        # construction.

    orphans: dict[int, dict] = {}
    for batch_id in sorted(inflight):
        for request_id, record in sorted(inflight[batch_id].items()):
            if request_id not in handled:
                orphans[request_id] = record
    orphans.update(queued)
    requeue = tuple(
        ProofRequest.from_record(orphans[request_id])
        for request_id in sorted(orphans))

    last = journal.records[-1]
    return ResumeState(
        clock_s=last.t_s,
        crash_seq=last.seq,
        replayed_records=replayed,
        queued=requeue,
        handled_ids=frozenset(handled),
        next_batch_id=next_batch_id,
        plan_keys=plan_keys,
        twiddle_shapes=twiddle_shapes)


class RecoveryManager:
    """Restores a crashed server from its write-ahead journal.

    Parameters
    ----------
    journal:
        The surviving :class:`WriteAheadJournal` of the crashed run.
    server_factory:
        Zero-argument callable building a server configured exactly
        like the crashed one **and bound to the same journal** (the
        manager checks this; resuming onto a different journal would
        fork history).
    """

    def __init__(self, journal: WriteAheadJournal,
                 server_factory: Callable[[], object]) -> None:
        self.journal = journal
        self.server_factory = server_factory
        self.recoveries = 0
        self.last_server = None

    def resume_state(self) -> ResumeState:
        """Verify the journal, replay it, and classify every request.

        Delegates to :func:`replay_journal` — the same replay the
        fleet's journaled failover runs over a fenced replica's
        journal.
        """
        return replay_journal(self.journal)

    def recover(self, requests: list[ProofRequest]) -> ServeReport:
        """One recovery leg: build a fresh server and resume the run.

        May itself raise :class:`~repro.errors.ServerCrashError` if the
        fault plan holds further crash points; :func:`serve_durably`
        loops until the workload drains.
        """
        state = self.resume_state()
        server = self.server_factory()
        if getattr(server, "journal", None) is not self.journal:
            raise ServeError(
                "recovery server must share the crashed server's "
                "journal (pass the same WriteAheadJournal to the "
                "factory's ProofServer)")
        self.recoveries += 1
        self.last_server = server
        return server.serve(requests, resume=state)


def serve_durably(requests: list[ProofRequest],
                  server_factory: Callable[[], object], *,
                  max_recoveries: int = 16) -> RecoveryOutcome:
    """Serve a workload to completion across any number of crashes.

    Builds a server, serves, and on every
    :class:`~repro.errors.ServerCrashError` hands the surviving journal
    to a :class:`RecoveryManager` and resumes, until the run finishes
    or ``max_recoveries`` is exhausted.  Results emitted by crashed
    incarnations (what clients actually observed) are merged with the
    final leg's; the exactly-once invariant is re-checked on the merge.
    """
    server = server_factory()
    journal = getattr(server, "journal", None)
    if journal is None:
        raise ServeError(
            "serve_durably needs a journaled server; build the factory's "
            "ProofServer with journal=WriteAheadJournal()")
    manager = RecoveryManager(journal, server_factory)
    legs: list[ServeReport] = []
    results: list[RequestResult] = []
    try:
        report = server.serve(requests)
    except ServerCrashError as crash:
        while True:
            legs.append(crash.report)
            results.extend(crash.report.results)
            if manager.recoveries >= max_recoveries:
                raise ServeError(
                    f"gave up after {manager.recoveries} recoveries "
                    f"(last crash at journal seq {crash.crash_seq})"
                ) from crash
            try:
                report = manager.recover(requests)
                break
            except ServerCrashError as next_crash:
                crash = next_crash
        server = manager.last_server
    legs.append(report)
    results.extend(report.results)
    results.sort(key=lambda r: r.request.request_id)
    emitted = [r.request.request_id for r in results]
    duplicates = sorted({i for i in emitted if emitted.count(i) > 1})
    if duplicates:
        raise ServeError(
            f"exactly-once violated: requests {duplicates} were emitted "
            "by more than one server incarnation")
    return RecoveryOutcome(report=report, legs=legs, results=results,
                           recoveries=manager.recoveries, server=server)
