"""Requests and per-request results for the proof-serving scheduler.

A :class:`ProofRequest` is one client's ask: transform ``batch``
vectors of size ``2**log_size`` over a named field, forward or inverse,
with a priority and an optional deadline.  Requests carry a data seed
rather than data: the input vectors are a pure function of
``(data_seed, request_id, lane)``, so a workload file fully determines
every byte the server touches and runs replay bit-identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ServeError
from repro.field.presets import field_by_name
from repro.field.prime_field import PrimeField

__all__ = ["DIRECTIONS", "ProofRequest", "RequestResult"]

#: Transform directions a request may ask for.
DIRECTIONS = ("forward", "inverse")


@dataclass(frozen=True)
class ProofRequest:
    """One queued transform request.

    Attributes
    ----------
    request_id:
        Unique id within a workload; ties in every ordering break on it.
    field_name:
        Preset field name (resolved via ``repro.field.field_by_name``).
    log_size:
        Transform size is ``2**log_size``.
    direction:
        ``"forward"`` or ``"inverse"``.
    batch:
        Number of independent vectors in this request (a proof stage
        typically transforms many witness columns at once).
    priority:
        Smaller is more urgent; breaks ties among equal deadlines.
    deadline_s:
        Absolute virtual-time deadline, or ``None`` for best-effort.
    arrival_s:
        Virtual time the request reaches the server.
    data_seed:
        Seed for the deterministic input data.
    tenant_id:
        The submitting tenant.  Per-tenant QoS (weighted fair queueing
        in :mod:`repro.serve.qos`) and the per-tenant report breakdown
        key on it; single-tenant workloads leave the default.

    How a lane is transformed on the host (lists or packed lanes) is
    the active field backend's choice, not the request's.
    """

    request_id: int
    field_name: str
    log_size: int
    direction: str = "forward"
    batch: int = 1
    priority: int = 0
    deadline_s: float | None = None
    arrival_s: float = 0.0
    data_seed: int = 0
    tenant_id: str = "default"

    def __post_init__(self) -> None:
        if not isinstance(self.tenant_id, str) or not self.tenant_id:
            raise ServeError(
                f"request {self.request_id}: tenant_id must be a "
                f"non-empty string, got {self.tenant_id!r}")
        if self.direction not in DIRECTIONS:
            raise ServeError(
                f"request {self.request_id}: direction must be one of "
                f"{DIRECTIONS}, got {self.direction!r}")
        if self.log_size < 1:
            raise ServeError(
                f"request {self.request_id}: log_size must be >= 1, "
                f"got {self.log_size}")
        if self.batch < 1:
            raise ServeError(
                f"request {self.request_id}: batch must be >= 1, "
                f"got {self.batch}")
        if self.arrival_s < 0:
            raise ServeError(
                f"request {self.request_id}: arrival_s must be >= 0, "
                f"got {self.arrival_s}")
        if self.deadline_s is not None and self.deadline_s < self.arrival_s:
            raise ServeError(
                f"request {self.request_id}: deadline {self.deadline_s} "
                f"precedes arrival {self.arrival_s}")
        field = field_by_name(self.field_name)  # raises KeyError if unknown
        if self.log_size > field.two_adicity:
            raise ServeError(
                f"request {self.request_id}: {field.name} has two-adicity "
                f"{field.two_adicity}; cannot transform 2^{self.log_size}")

    @property
    def n(self) -> int:
        return 1 << self.log_size

    @property
    def field(self) -> PrimeField:
        return field_by_name(self.field_name)

    def shape_key(self) -> tuple[str, int, str]:
        """Requests sharing this key may ride one cross-request batch."""
        return (self.field_name, self.log_size, self.direction)

    def urgency_key(self) -> tuple[float, int, float, int]:
        """Deadline-first total order (EDF), ties by priority/arrival."""
        deadline = self.deadline_s if self.deadline_s is not None \
            else float("inf")
        return (deadline, self.priority, self.arrival_s, self.request_id)

    def to_record(self) -> dict[str, object]:
        """JSON-serializable record (journal / snapshot / workload)."""
        return {
            "request_id": self.request_id,
            "field_name": self.field_name,
            "log_size": self.log_size,
            "direction": self.direction,
            "batch": self.batch,
            "priority": self.priority,
            "deadline_s": self.deadline_s,
            "arrival_s": self.arrival_s,
            "data_seed": self.data_seed,
            "tenant_id": self.tenant_id,
        }

    @classmethod
    def from_record(cls, record: dict) -> "ProofRequest":
        """Rebuild a request from :meth:`to_record` output.

        Records written while requests still carried an execution-route
        flag hold a ``"packed"`` key; it is dropped, since the backend
        now makes that choice.  Any other unknown key is an error.
        """
        fields = {key: value for key, value in record.items()
                  if key != "packed"}
        try:
            return cls(**fields)
        except TypeError as error:
            raise ServeError(f"bad request record: {error}") from error

    def vectors(self) -> list[list[int]]:
        """The request's deterministic input data, one list per lane."""
        field = self.field
        return [
            field.random_vector(
                self.n,
                random.Random(repr((self.data_seed, self.request_id, lane))))
            for lane in range(self.batch)
        ]


@dataclass(frozen=True)
class RequestResult:
    """One completed request: outputs plus its service-time accounting."""

    request: ProofRequest
    outputs: tuple[tuple[int, ...], ...]
    start_s: float
    finish_s: float
    batch_id: int
    strategy: str
    shared_batch: int

    @property
    def latency_s(self) -> float:
        """Arrival-to-completion time (queueing + service)."""
        return self.finish_s - self.request.arrival_s

    @property
    def deadline_met(self) -> bool:
        deadline = self.request.deadline_s
        return deadline is None or self.finish_s <= deadline
