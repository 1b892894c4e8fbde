"""Campaign-service API types: specs, job records, typed service errors.

The service's unit of work is a :class:`CampaignSpec` — the complete,
canonical description of one fleet campaign (policy, hours, seed, chunk
plan, engine, context mix, worker count).  Everything the daemon
promises follows from treating the spec as *content-addressed data*:

* ``spec.digest`` is the sha256 of the canonical spec payload (the same
  :func:`~repro.io.artifact.payload_digest` discipline as every other
  artifact).  The job id derives from it, so submitting the same
  campaign twice — same tenant or not — lands on the same job: admission
  is idempotent, and a completed spec's result artifact is found by
  digest with zero compute (the cache-hit leg of DESIGN §14).
* A :class:`JobRecord` is the durable ground truth for one job,
  persisted as a ``repro.job-record/v1`` artifact through the
  :mod:`repro.io` boundary *before* the submission is acknowledged.
  ``kill -9`` of the daemon therefore cannot lose an accepted job: the
  record either reached the spool (and recovery re-queues it) or the
  client never got its 201.

The state machine (DESIGN §14)::

    submitted ──▶ queued ──▶ leased ──▶ running ──▶ done
                    ▲                      │  ├──▶ failed
                    └──────── requeue ─────┘  └──▶ cancelled

``submitted`` is transient (it exists only between the HTTP parse and
the first durable write, which lands the record in ``queued``), so only
the six durable states appear in ``JOB_STATES``.

Typed failures: every way the service refuses work is a
:class:`ServiceError` (a :class:`~repro.errors.ReproError`, CLI exit 4)
carrying the HTTP status and machine-readable ``kind`` the server maps
onto the wire — backpressure is :class:`QueueFullError` with a
``retry_after_s``, never a hang or an untyped 500.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from typing import Dict, Mapping, Optional, Tuple

from ..errors import ReproError
from ..io.artifact import (ArtifactSchema, payload_digest, register_artifact)
from ..io.validate import Int, MapOf, NullOr, Number, Record, Str

__all__ = [
    "JOB_RECORD_SCHEMA", "JOB_RECORD_SCHEMA_NAME", "JOB_STATES",
    "MAX_JOB_WAIT_S", "PRIORITY_CLASSES", "TERMINAL_STATES",
    "CampaignSpec", "JobRecord", "Lease", "ServiceError", "QueueFullError",
    "DrainingError", "UnknownJobError", "InvalidSubmissionError",
    "SpoolError", "JobStateError", "DiskPressureError",
]

JOB_RECORD_SCHEMA_NAME = "repro.job-record"
JOB_RECORD_SCHEMA = f"{JOB_RECORD_SCHEMA_NAME}/v1"

#: Durable job states, in lifecycle order.
JOB_STATES = ("queued", "leased", "running", "done", "failed", "cancelled")

#: States no transition leaves (except an explicit resubmission of a
#: ``failed``/``cancelled`` spec, which re-queues the same record).
TERMINAL_STATES = ("done", "failed", "cancelled")

#: The longest ``GET /v1/jobs/<id>?wait=S`` blocks before answering
#: with a still-running job; a larger ``wait`` is clamped to it.
MAX_JOB_WAIT_S = 30.0

#: Scheduling classes, strongest first — the scheduler drains a class
#: completely before touching the next.
PRIORITY_CLASSES = ("high", "normal", "low")

_POLICIES = ("cautious", "nominal", "aggressive")
_ENGINES = ("vectorized", "scalar")


# -- typed service errors --------------------------------------------------

class ServiceError(ReproError):
    """Root of the campaign service's refusal taxonomy.

    ``kind`` is the machine-readable discriminator the HTTP layer puts
    in the error envelope; ``http_status`` the response code it maps to.
    """

    kind = "service"
    http_status = 500


class InvalidSubmissionError(ServiceError):
    """The submission payload is malformed or names an unknown option."""

    kind = "invalid-submission"
    http_status = 400


class UnknownJobError(ServiceError):
    """No job record under that id."""

    kind = "unknown-job"
    http_status = 404

    def __init__(self, job_id: str):
        super().__init__(f"no job {job_id!r} in the spool")
        self.job_id = job_id


class JobStateError(ServiceError):
    """The job exists but its state forbids the request (e.g. asking
    for the result of a job that has not finished)."""

    kind = "job-state"
    http_status = 409


class QueueFullError(ServiceError):
    """Admission refused: the bounded queue is at capacity.

    The typed backpressure reject — carries ``retry_after_s`` so clients
    back off deterministically instead of hammering or hanging.
    """

    kind = "queue-full"
    http_status = 429

    def __init__(self, depth: int, limit: int, retry_after_s: float):
        super().__init__(
            f"job queue is full ({depth}/{limit}); retry in "
            f"{retry_after_s:g} s")
        self.depth = depth
        self.limit = limit
        self.retry_after_s = retry_after_s


class DrainingError(ServiceError):
    """Admission refused: the daemon is draining for shutdown."""

    kind = "draining"
    http_status = 503

    def __init__(self) -> None:
        super().__init__("service is draining; resubmit after restart")
        self.retry_after_s = 5.0


class SpoolError(ServiceError):
    """A durable write to the spool failed (disk full, permissions) —
    the job was NOT accepted."""

    kind = "spool"
    http_status = 507


class DiskPressureError(ServiceError):
    """Admission refused *pre-emptively*: the spool's disk is under
    pressure and the daemon has degraded to read-only-for-new-work
    (``cautious``) or is draining in-flight runners (``minimal``).

    The proactive sibling of :class:`SpoolError` — same 507, but
    raised *before* any write is attempted, with a ``retry_after_s``
    so clients back off while the operator (or ``repro gc``) makes
    room.
    """

    kind = "disk-pressure"
    http_status = 507

    def __init__(self, mode: str, free_bytes: int, low_free_bytes: int,
                 retry_after_s: float = 10.0):
        super().__init__(
            f"service is in {mode} mode: {free_bytes} bytes free on the "
            f"spool filesystem (low watermark {low_free_bytes}); retry "
            f"in {retry_after_s:g} s or reclaim space with `repro gc`")
        self.mode = mode
        self.free_bytes = free_bytes
        self.low_free_bytes = low_free_bytes
        self.retry_after_s = retry_after_s


# -- the campaign spec -----------------------------------------------------

def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign, completely and canonically described.

    Every field is part of the determinism contract's identity (the
    same tuple :func:`~repro.traffic.fleet.run_fleet` pins in its
    checkpoint identity block), except ``workers`` — which cannot change
    the result bit-for-bit, but *is* kept in the digest so "same spec"
    means "same resource request" too.
    """

    policy: str
    hours: float
    seed: int
    chunk_hours: float = 250.0
    engine: str = "vectorized"
    workers: int = 1
    mix: Mapping[str, float] = field(
        default_factory=lambda: {"urban": 0.5, "suburban": 0.2,
                                 "rural": 0.2, "highway": 0.1})

    def __post_init__(self) -> None:
        if self.policy not in _POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; choose "
                             f"from {_POLICIES}")
        if self.engine not in _ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; choose "
                             f"from {_ENGINES}")
        if not (isinstance(self.hours, (int, float))
                and self.hours > 0):
            raise ValueError(f"hours must be positive, got {self.hours!r}")
        if not (isinstance(self.chunk_hours, (int, float))
                and self.chunk_hours > 0):
            raise ValueError(
                f"chunk_hours must be positive, got {self.chunk_hours!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ValueError(
                f"workers must be a positive integer, got {self.workers!r}")
        if not self.mix or any(
                not isinstance(v, (int, float)) or v < 0
                for v in self.mix.values()):
            raise ValueError("mix must map contexts to non-negative "
                             "weights")
        object.__setattr__(self, "mix", dict(self.mix))

    def to_dict(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "hours": float(self.hours),
            "seed": int(self.seed),
            "chunk_hours": float(self.chunk_hours),
            "engine": self.engine,
            "workers": int(self.workers),
            "mix": {str(k): float(v) for k, v in sorted(self.mix.items())},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CampaignSpec":
        unknown = set(data) - {"policy", "hours", "seed", "chunk_hours",
                               "engine", "workers", "mix"}
        if unknown:
            raise ValueError(f"unknown spec fields {sorted(unknown)}")
        if not {"policy", "hours", "seed"} <= set(data):
            missing = {"policy", "hours", "seed"} - set(data)
            raise ValueError(f"spec is missing {sorted(missing)}")
        kwargs: Dict[str, object] = {
            "policy": str(data["policy"]),
            "hours": float(data["hours"]),  # type: ignore[arg-type]
            "seed": data["seed"],
        }
        if "chunk_hours" in data:
            kwargs["chunk_hours"] = float(data["chunk_hours"])  # type: ignore[arg-type]
        if "engine" in data:
            kwargs["engine"] = str(data["engine"])
        if "workers" in data:
            kwargs["workers"] = data["workers"]
        if "mix" in data:
            mix = data["mix"]
            if not isinstance(mix, Mapping):
                raise ValueError("mix must be an object")
            kwargs["mix"] = {str(k): float(v)  # type: ignore[arg-type]
                             for k, v in mix.items()}
        return cls(**kwargs)  # type: ignore[arg-type]

    @property
    def digest(self) -> str:
        """``"sha256:<hex>"`` over the canonical spec payload — the
        content address of this campaign's result."""
        return payload_digest(self.to_dict())

    @property
    def job_id(self) -> str:
        """The digest-derived job id (idempotent resubmission key)."""
        return "j-" + self.digest.split(":", 1)[1][:16]


# -- leases ----------------------------------------------------------------

@dataclass(frozen=True)
class Lease:
    """One grant of a job to a runner process.

    ``epoch`` is the granting daemon's boot identity: any lease whose
    epoch is not the *current* daemon's is dead by construction (its
    runner was orphaned by a crash), which is what makes hard-kill
    recovery decidable without clocks.
    """

    lease_id: int
    epoch: str
    pid: int
    ttl_s: float

    def to_dict(self) -> Dict[str, object]:
        return {"lease_id": self.lease_id, "epoch": self.epoch,
                "pid": self.pid, "ttl_s": self.ttl_s}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Lease":
        return cls(lease_id=int(data["lease_id"]),  # type: ignore[arg-type]
                   epoch=str(data["epoch"]),
                   pid=int(data["pid"]),  # type: ignore[arg-type]
                   ttl_s=float(data["ttl_s"]))  # type: ignore[arg-type]


# -- the durable job record ------------------------------------------------

@dataclass(frozen=True)
class JobRecord:
    """The durable ground truth for one job (``repro.job-record/v1``).

    Immutable value object: state transitions build a new record via
    :meth:`advanced` and persist it atomically — the record on disk is
    always one consistent state, never a torn transition.
    """

    job_id: str
    spec: CampaignSpec
    spec_digest: str
    tenant: str
    priority: str
    state: str
    submit_seq: int
    attempts: int = 0
    created_utc: str = ""
    updated_utc: str = ""
    lease: Optional[Lease] = None
    error: Optional[str] = None
    chunks_resumed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise ValueError(f"unknown job state {self.state!r}; expected "
                             f"one of {JOB_STATES}")
        if self.priority not in PRIORITY_CLASSES:
            raise ValueError(
                f"unknown priority {self.priority!r}; expected one of "
                f"{PRIORITY_CLASSES}")
        if self.spec_digest != self.spec.digest:
            raise ValueError(
                f"spec digest mismatch: record claims {self.spec_digest}, "
                f"spec hashes to {self.spec.digest}")
        if self.submit_seq < 0:
            raise ValueError("submit_seq must be >= 0")
        if self.attempts < 0:
            raise ValueError("attempts must be >= 0")

    @classmethod
    def new(cls, spec: CampaignSpec, *, tenant: str, priority: str,
            submit_seq: int) -> "JobRecord":
        now = _utc_now()
        return cls(job_id=spec.job_id, spec=spec, spec_digest=spec.digest,
                   tenant=tenant, priority=priority, state="queued",
                   submit_seq=submit_seq, created_utc=now, updated_utc=now)

    def advanced(self, state: str, **changes: object) -> "JobRecord":
        """A copy in ``state`` with ``updated_utc`` refreshed."""
        return replace(self, state=state, updated_utc=_utc_now(),
                       **changes)  # type: ignore[arg-type]

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> Dict[str, object]:
        return {
            "job_id": self.job_id,
            "spec": self.spec.to_dict(),
            "spec_digest": self.spec_digest,
            "tenant": self.tenant,
            "priority": self.priority,
            "state": self.state,
            "submit_seq": int(self.submit_seq),
            "attempts": int(self.attempts),
            "created_utc": self.created_utc,
            "updated_utc": self.updated_utc,
            "lease": None if self.lease is None else self.lease.to_dict(),
            "error": self.error,
            "chunks_resumed": (None if self.chunks_resumed is None
                               else int(self.chunks_resumed)),
        }


# -- artifact schema registration ------------------------------------------

def _load_job_record(data: Mapping[str, object]) -> JobRecord:
    lease = data.get("lease")
    chunks_resumed = data.get("chunks_resumed")
    return JobRecord(
        job_id=str(data["job_id"]),
        spec=CampaignSpec.from_dict(dict(data["spec"])),  # type: ignore[call-overload]
        spec_digest=str(data["spec_digest"]),
        tenant=str(data["tenant"]),
        priority=str(data["priority"]),
        state=str(data["state"]),
        submit_seq=int(data["submit_seq"]),  # type: ignore[arg-type]
        attempts=int(data["attempts"]),  # type: ignore[arg-type]
        created_utc=str(data["created_utc"]),
        updated_utc=str(data["updated_utc"]),
        lease=None if lease is None else Lease.from_dict(dict(lease)),  # type: ignore[call-overload]
        error=None if data["error"] is None else str(data["error"]),
        chunks_resumed=(None if chunks_resumed is None
                        else int(chunks_resumed)),  # type: ignore[arg-type]
    )


def _example_job_record() -> JobRecord:
    """A small deterministic record for the fuzz tier."""
    spec = CampaignSpec(policy="nominal", hours=8.0, seed=2020,
                        chunk_hours=2.0, engine="vectorized", workers=1,
                        mix={"urban": 0.75, "highway": 0.25})
    record = JobRecord.new(spec, tenant="acme", priority="normal",
                           submit_seq=3)
    record = replace(record, created_utc="2026-01-01T00:00:00+00:00",
                     updated_utc="2026-01-01T00:00:05+00:00")
    return record.advanced(
        "leased", attempts=1,
        lease=Lease(lease_id=1, epoch="boot-0001", pid=4242, ttl_s=30.0))


def _job_records_equal(a: object, b: object) -> bool:
    """Loaded-state equality (the ``updated_utc`` stamp is volatile)."""
    assert isinstance(a, JobRecord) and isinstance(b, JobRecord)
    return replace(a, updated_utc="") == replace(b, updated_utc="")


SPEC_PAYLOAD_SPEC = Record(required={
    "policy": Str(), "hours": Number(), "seed": Int(),
    "chunk_hours": Number(), "engine": Str(), "workers": Int(),
    "mix": MapOf(Number()),
})

_LEASE_SPEC = Record(required={
    "lease_id": Int(), "epoch": Str(), "pid": Int(), "ttl_s": Number(),
})

_JOB_RECORD_SPEC = Record(required={
    "job_id": Str(),
    "spec": SPEC_PAYLOAD_SPEC,
    "spec_digest": Str(),
    "tenant": Str(),
    "priority": Str(),
    "state": Str(),
    "submit_seq": Int(),
    "attempts": Int(),
    "created_utc": Str(),
    "updated_utc": Str(),
    "lease": NullOr(_LEASE_SPEC),
    "error": NullOr(Str()),
    "chunks_resumed": NullOr(Int()),
})

register_artifact(ArtifactSchema(
    name=JOB_RECORD_SCHEMA_NAME,
    version=1,
    spec=_JOB_RECORD_SPEC,
    load=_load_job_record,
    dump=JobRecord.to_dict,
    label="job record",
    example=_example_job_record,
    equal=_job_records_equal,
    volatile=("updated_utc",),
))
