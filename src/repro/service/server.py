"""The campaign service daemon: HTTP front, durable core, graceful exit.

:class:`CampaignService` is the in-process core — admission, the durable
job store, the fair-share scheduler, the supervisor and the service
journal behind one lock.  The HTTP layer is a deliberately thin
translation: parse JSON, call the core, map results to JSON and typed
:class:`~repro.service.jobs.ServiceError` refusals to their status codes
(429 carries ``Retry-After``).  *Every* refusal is a typed envelope
``{"error": {"kind", "message", ...}}`` — an untyped 500 is a bug the
chaos tier hunts.

Crash-safety choreography at admission: the job record is persisted to
the spool *before* the 201 goes out, so an accepted job survives
``kill -9`` of the daemon by construction.  The journal append comes
after the record write — it is the audit leg; losing the last audit
line to a kill is acceptable, losing a job is not.

Shutdown discipline (DESIGN §14):

* **SIGTERM → graceful drain.**  Stop admitting (503 + typed
  ``draining`` envelope), SIGTERM every runner so it checkpoints and
  exits 130, park in-flight jobs back in ``queued``, journal
  ``service.draining → drained → stopped``, exit 0.
* **SIGKILL → hard-kill recovery.**  Nothing to do at death; the next
  boot replays job records, completes anything whose result artifact
  already landed, and requeues the rest (dead-epoch leases) to resume
  from their checkpoints.

HTTP API (all under ``/v1``)::

    POST /v1/jobs            {"spec": {...}, "tenant"?, "priority"?}
    GET  /v1/jobs            list job records
    GET  /v1/jobs/<id>       one record + checkpoint progress
    GET  /v1/jobs/<id>?wait  the same, once the job is terminal or
                             MAX_JOB_WAIT_S seconds passed
    GET  /v1/jobs/<id>/result  the repro.job-result/v1 envelope
    POST /v1/jobs/<id>/cancel
    GET  /v1/status          queue/runner/counter snapshot
    GET  /v1/metrics         Prometheus exposition text
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from ..errors import ArtifactError
from ..io.artifact import ARTIFACTS, parse_artifact_bytes
from ..io.atomic import atomic_write_text
from ..obs.export import prometheus_text
from ..obs.metrics import MetricsRegistry
from ..testing.chaos import service_chaos
from ..traffic.checkpoint import read_checkpoint_progress
from .jobs import (MAX_JOB_WAIT_S, PRIORITY_CLASSES, CampaignSpec,
                   DiskPressureError, DrainingError, InvalidSubmissionError,
                   JobRecord, JobStateError, QueueFullError, ServiceError,
                   SpoolError, UnknownJobError)
from .journal import ServiceJournal
from .pressure import (DEFAULT_CRITICAL_FREE_BYTES, DEFAULT_LOW_FREE_BYTES,
                       DiskPressureWatchdog)
from .scheduler import FairShareScheduler, QueueEntry
from .store import JOB_RESULT_SCHEMA_NAME, JobStore
from .supervisor import Supervisor

__all__ = ["CampaignService", "serve", "MAX_BODY_BYTES"]

#: Submission bodies beyond this are refused with 413 before parsing.
MAX_BODY_BYTES = 1 << 20


class CampaignService:
    """The durable core of one campaign daemon."""

    def __init__(self, spool: Union[str, Path], *, queue_limit: int = 16,
                 max_runners: int = 2, lease_ttl_s: float = 30.0,
                 max_attempts: int = 3,
                 low_free_bytes: int = DEFAULT_LOW_FREE_BYTES,
                 critical_free_bytes: int = DEFAULT_CRITICAL_FREE_BYTES,
                 disk_probe=None):
        self.store = JobStore(spool)
        self.epoch = f"epoch-{os.getpid()}-{os.urandom(4).hex()}"
        self.metrics = MetricsRegistry()
        self._lock = threading.RLock()
        # Notified on every journaled event; job_status(wait=True)
        # sleeps on it until its job is terminal.
        self._changed = threading.Condition(self._lock)
        self.scheduler = FairShareScheduler(queue_limit=queue_limit)
        self.watchdog = DiskPressureWatchdog(
            self.store.root, low_free_bytes=low_free_bytes,
            critical_free_bytes=critical_free_bytes, probe=disk_probe)
        self.supervisor = Supervisor(
            self.store, self.scheduler, self._emit, self.metrics,
            self._lock, epoch=self.epoch, max_runners=max_runners,
            lease_ttl_s=lease_ttl_s, max_attempts=max_attempts,
            watchdog=self.watchdog)
        self._journal: Optional[ServiceJournal] = None
        self._next_seq = 0
        self.draining = False
        self._drain_announced = False

    # -- journal (audit leg; best-effort by design) -----------------------

    def _emit(self, kind: str, **data: object) -> None:
        if self._journal is not None:
            try:
                self._journal.emit(kind, data)
            except (OSError, ValueError):
                # Audit starvation must never take down the service; the
                # ValueError arm covers a journal poisoned by an earlier
                # failed append (records, not the journal, drive recovery).
                pass
        service_chaos(f"journal-append:{kind}")
        with self._changed:
            self._changed.notify_all()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Open the journal, replay the spool, start supervising."""
        self._journal = ServiceJournal.open(self.store.journal_path,
                                            resume=True)
        self._emit("service.started", epoch=self.epoch, pid=os.getpid())
        self._next_seq = self.store.max_submit_seq() + 1
        counts = self.supervisor.recover()
        self._emit("service.recovered", **counts)
        self.supervisor.start()

    def begin_drain(self) -> None:
        with self._lock:
            self.draining = True
            if self._drain_announced:
                return
            self._drain_announced = True
        self._emit("service.draining", epoch=self.epoch)

    def drain_and_stop(self, timeout_s: float = 30.0) -> None:
        self.begin_drain()
        self.supervisor.drain(timeout_s=timeout_s)
        self._emit("service.drained", epoch=self.epoch)
        self.supervisor.stop()
        self._emit("service.stopped", epoch=self.epoch)
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    # -- admission ---------------------------------------------------------

    def submit(self, payload: Mapping[str, object], *,
               tenant: str = "default", priority: str = "normal",
               ) -> Tuple[JobRecord, bool, bool]:
        """Admit one spec; returns ``(record, created, cached)``.

        Idempotent by construction: the job id derives from the spec
        digest, so resubmitting a live or completed spec returns the
        existing record (a completed one is a cache hit — zero compute).
        """
        if not tenant or not isinstance(tenant, str):
            raise InvalidSubmissionError("tenant must be a non-empty "
                                         "string")
        if priority not in PRIORITY_CLASSES:
            raise InvalidSubmissionError(
                f"unknown priority {priority!r}; choose from "
                f"{PRIORITY_CLASSES}")
        try:
            spec = CampaignSpec.from_dict(payload)
        except (TypeError, ValueError, KeyError) as exc:
            raise InvalidSubmissionError(
                f"invalid campaign spec: {exc}") from exc
        with self._lock:
            if self.draining:
                raise DrainingError()
            # Pre-emptive 507 (DESIGN §15): under disk pressure the
            # spool is read-only for new work — refuse with a typed
            # retry hint *before* any durable write is attempted.
            if self.watchdog.poll() != "nominal":
                self.metrics.counter("service.pressure_rejections").inc()
                raise DiskPressureError(
                    self.watchdog.mode, self.watchdog.free_bytes or 0,
                    self.watchdog.low_free_bytes)
            if self.store.has_job(spec.job_id):
                return self._resubmit(self.store.load_job(spec.job_id),
                                      tenant, priority)
            record = JobRecord.new(spec, tenant=tenant, priority=priority,
                                   submit_seq=self._next_seq)
            if self.store.has_result(spec.digest):
                # The result already exists (prior spool life or another
                # tenant's identical spec): complete without queueing.
                cached = self.store.load_result(spec.digest)
                record = record.advanced(
                    "done", chunks_resumed=cached.chunks_resumed)
                self.store.save_job(record)
                self._next_seq += 1
                self._emit("job.cached", job_id=record.job_id,
                           tenant=tenant, spec_digest=record.spec_digest)
                self.metrics.counter("service.submitted").inc()
                self.metrics.counter("service.cache_hits").inc()
                return record, True, True
            self._admit(record)
            return record, True, False

    def _admit(self, record: JobRecord) -> None:
        """Queue + persist one fresh/resubmitted record (under lock)."""
        try:
            self.scheduler.submit(QueueEntry(
                job_id=record.job_id, tenant=record.tenant,
                priority=record.priority, submit_seq=record.submit_seq))
        except QueueFullError as exc:
            self.metrics.counter("service.rejected").inc()
            self._emit("job.rejected", job_id=record.job_id,
                       tenant=record.tenant, reason=exc.kind,
                       retry_after_s=exc.retry_after_s)
            raise
        try:
            self.store.save_job(record)
        except SpoolError:
            self.scheduler.remove(record.job_id)
            self.metrics.counter("service.rejected").inc()
            raise
        self._next_seq = max(self._next_seq, record.submit_seq) + 1
        self.metrics.counter("service.submitted").inc()
        self._emit("job.submitted", job_id=record.job_id,
                   tenant=record.tenant, priority=record.priority,
                   submit_seq=record.submit_seq,
                   spec_digest=record.spec_digest)

    def _resubmit(self, record: JobRecord, tenant: str, priority: str,
                  ) -> Tuple[JobRecord, bool, bool]:
        if record.state in ("failed", "cancelled"):
            # Explicit retry of a dead spec: same record, fresh admission.
            retry = record.advanced(
                "queued", lease=None, error=None, tenant=tenant,
                priority=priority, submit_seq=self._next_seq)
            self._admit(retry)
            return retry, True, False
        if (record.state == "queued"
                and record.job_id not in self.scheduler.queued_ids()):
            # A durability lie (short fsync) can persist the record
            # while the admission rolled its queue entry back — the
            # idempotent retry re-seats it instead of stranding it.
            self.supervisor._enqueue(record, force=True)
        if record.state == "done":
            # DESIGN §14: resubmitting a finished spec is a cache hit.
            self.metrics.counter("service.cache_hits").inc()
            return record, False, True
        return record, False, False

    # -- queries -----------------------------------------------------------

    def get_job(self, job_id: str) -> JobRecord:
        with self._lock:
            if not self.store.has_job(job_id):
                raise UnknownJobError(job_id)
            return self.store.load_job(job_id)

    def job_status(self, job_id: str,
                   wait: bool = False) -> Dict[str, object]:
        """One record and its checkpoint progress.

        With ``wait`` this is a long-poll: it answers as soon as the job
        is terminal, or after :data:`MAX_JOB_WAIT_S` seconds with
        whatever state the job is in.
        """
        deadline = time.monotonic() + (MAX_JOB_WAIT_S if wait else 0.0)
        with self._changed:
            record = self.get_job(job_id)
            while not record.terminal:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._changed.wait(remaining)
                record = self.get_job(job_id)
        return {"job": record.to_dict(),
                "checkpoint": read_checkpoint_progress(
                    self.store.checkpoint_path(job_id))}

    def list_jobs(self) -> List[JobRecord]:
        with self._lock:
            return list(self.store.iter_jobs())

    def result_envelope(self, job_id: str) -> Dict[str, object]:
        record = self.get_job(job_id)
        if record.state != "done":
            raise JobStateError(
                f"job {job_id} is {record.state}, not done; no result "
                f"to fetch")
        job_result = self.store.load_result(record.spec_digest)
        return ARTIFACTS.dump_dict(JOB_RESULT_SCHEMA_NAME, job_result)

    def status(self) -> Dict[str, object]:
        with self._lock:
            states: Dict[str, int] = {}
            for record in self.store.iter_jobs():
                states[record.state] = states.get(record.state, 0) + 1
            counters = self.metrics.snapshot().counters()
            return {
                "epoch": self.epoch,
                "pid": os.getpid(),
                "draining": self.draining,
                "pressure": {
                    "mode": self.watchdog.poll(),
                    "free_bytes": self.watchdog.free_bytes,
                    "low_free_bytes": self.watchdog.low_free_bytes,
                    "critical_free_bytes":
                        self.watchdog.critical_free_bytes,
                },
                "queue_depth": self.scheduler.depth(),
                "queued": list(self.scheduler.queued_ids()),
                "running": self.supervisor.running_jobs(),
                "jobs": states,
                "counters": {k: v for k, v in sorted(counters.items())
                             if k.startswith("service.")},
            }

    def metrics_text(self) -> str:
        return prometheus_text(self.metrics.snapshot())

    # -- cancellation ------------------------------------------------------

    def cancel(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self.get_job(job_id)
            if record.terminal:
                raise JobStateError(
                    f"job {job_id} is already {record.state}")
            was_queued = self.scheduler.remove(job_id)
            record = record.advanced("cancelled", lease=None)
            self.store.save_job(record)
            self._emit("job.cancelled", job_id=job_id,
                       tenant=record.tenant, was_queued=was_queued)
            self.metrics.counter("service.cancelled").inc()
            if not was_queued:
                self.supervisor.interrupt_runner(job_id)
            return record


# -- the HTTP layer --------------------------------------------------------

class _ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler, service: CampaignService):
        super().__init__(address, handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    server: _ServiceHTTPServer  # type: ignore[assignment]
    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass  # the journal is the audit trail; HTTP chatter stays quiet

    def _send_json(self, status: int, document: Mapping[str, object], *,
                   retry_after_s: Optional[float] = None) -> None:
        body = json.dumps(document, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after_s is not None:
            self.send_header("Retry-After",
                             str(max(1, int(round(retry_after_s)))))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_envelope(self, exc: ServiceError) -> None:
        payload: Dict[str, object] = {"kind": exc.kind,
                                      "message": str(exc)}
        retry_after_s = getattr(exc, "retry_after_s", None)
        if retry_after_s is not None:
            payload["retry_after_s"] = retry_after_s
        self._send_json(exc.http_status, {"error": payload},
                        retry_after_s=retry_after_s)

    def _read_body(self) -> Dict[str, object]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise _PayloadTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise InvalidSubmissionError("request body is empty; send a "
                                         "JSON document")
        try:
            document = parse_artifact_bytes(raw)
        except ArtifactError as exc:
            raise InvalidSubmissionError(
                f"request body is not valid JSON: {exc}") from exc
        if not isinstance(document, dict):
            raise InvalidSubmissionError(
                "request body must be a JSON object")
        return document

    def _wait(self) -> bool:
        """The ``wait`` flag: ``?wait`` or ``?wait=1``."""
        values = parse_qs(urlsplit(self.path).query,
                          keep_blank_values=True).get("wait")
        if values is None:
            return False
        if values[-1] not in ("", "1"):
            raise _InvalidQuery(f"wait is a flag (?wait or ?wait=1), "
                                f"got {values[-1]!r}")
        return True

    def _dispatch(self, method: str) -> None:
        try:
            handled = self._route(method)
        except ServiceError as exc:
            self._send_error_envelope(exc)
            return
        except BrokenPipeError:
            return
        except Exception as exc:  # noqa: BLE001 - typed-500 boundary
            # The catch-all that keeps "untyped 500" out of the wire
            # contract: every surprise still leaves as a typed envelope.
            self._send_json(500, {"error": {
                "kind": "internal",
                "message": f"{type(exc).__name__}: {exc}"}})
            return
        if not handled:
            self._send_json(404, {"error": {
                "kind": "unknown-route",
                "message": f"no route {method} {self.path}"}})

    # -- routing -----------------------------------------------------------

    def _route(self, method: str) -> bool:
        service = self.server.service
        parts = [p for p in self.path.split("?", 1)[0].split("/") if p]
        if parts[:1] != ["v1"]:
            return False
        parts = parts[1:]
        if method == "GET":
            if parts == ["status"]:
                self._send_json(200, service.status())
                return True
            if parts == ["metrics"]:
                body = service.metrics_text().encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type",
                                 "text/plain; version=0.0.4")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                return True
            if parts == ["jobs"]:
                self._send_json(200, {"jobs": [
                    r.to_dict() for r in service.list_jobs()]})
                return True
            if len(parts) == 2 and parts[0] == "jobs":
                self._send_json(200, service.job_status(
                    parts[1], wait=self._wait()))
                return True
            if len(parts) == 3 and parts[0] == "jobs" \
                    and parts[2] == "result":
                self._send_json(200, service.result_envelope(parts[1]))
                return True
            return False
        if method == "POST":
            if parts == ["jobs"]:
                document = self._read_body()
                spec = document.get("spec")
                if not isinstance(spec, dict):
                    raise InvalidSubmissionError(
                        'submission must carry a "spec" object')
                record, created, cached = service.submit(
                    spec,
                    tenant=document.get("tenant", "default"),  # type: ignore[arg-type]
                    priority=document.get("priority", "normal"))  # type: ignore[arg-type]
                self._send_json(201 if created else 200, {
                    "job": record.to_dict(), "created": created,
                    "cached": cached})
                return True
            if len(parts) == 3 and parts[0] == "jobs" \
                    and parts[2] == "cancel":
                record = service.cancel(parts[1])
                self._send_json(200, {"job": record.to_dict()})
                return True
            return False
        return False

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")


class _PayloadTooLarge(ServiceError):
    kind = "payload-too-large"
    http_status = 413


class _InvalidQuery(ServiceError):
    kind = "invalid-query"
    http_status = 400


# -- the daemon entry point ------------------------------------------------

def serve(spool: Union[str, Path], *, host: str = "127.0.0.1",
          port: int = 0, queue_limit: int = 16, max_runners: int = 2,
          lease_ttl_s: float = 30.0, max_attempts: int = 3,
          drain_timeout_s: float = 30.0,
          low_free_bytes: int = DEFAULT_LOW_FREE_BYTES,
          critical_free_bytes: int = DEFAULT_CRITICAL_FREE_BYTES) -> int:
    """Run the campaign daemon until SIGTERM/SIGINT; returns exit code.

    Binds (``port=0`` picks a free port), publishes the bound URL + pid
    to ``<spool>/endpoint.json`` for clients, recovers the spool, then
    serves.  SIGTERM and SIGINT both trigger the graceful drain and a
    clean exit 0.
    """
    service = CampaignService(spool, queue_limit=queue_limit,
                              max_runners=max_runners,
                              lease_ttl_s=lease_ttl_s,
                              max_attempts=max_attempts,
                              low_free_bytes=low_free_bytes,
                              critical_free_bytes=critical_free_bytes)
    service.start()
    httpd = _ServiceHTTPServer((host, port), _Handler, service)
    bound_host, bound_port = httpd.server_address[:2]
    url = f"http://{bound_host}:{bound_port}"
    atomic_write_text(service.store.endpoint_path,
                      json.dumps({"url": url, "pid": os.getpid(),
                                  "epoch": service.epoch}) + "\n")
    print(f"serving campaigns on {url} (spool: {service.store.root})",
          flush=True)

    def _begin_shutdown(signum: int, frame: object) -> None:
        # Stop admitting immediately; unwind serve_forever off-thread
        # (shutdown() must not run on the serving thread).
        service.draining = True
        threading.Thread(target=httpd.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _begin_shutdown)
    signal.signal(signal.SIGINT, _begin_shutdown)
    try:
        httpd.serve_forever(poll_interval=0.05)
    finally:
        httpd.server_close()
        service.drain_and_stop(timeout_s=drain_timeout_s)
        try:
            os.unlink(service.store.endpoint_path)
        except OSError:
            pass
    print("campaign service drained; all in-flight jobs checkpointed",
          flush=True)
    return 0
