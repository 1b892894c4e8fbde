"""A stdlib HTTP client for the campaign service.

Thin on purpose: the wire contract *is* the contract, and the client's
one job is to translate it faithfully — JSON in, JSON out, and every
typed error envelope re-raised as a :class:`ServiceClientError` that
keeps the server's ``kind``, status and ``retry_after_s`` intact (a 429
reaches CLI code as a typed, retryable refusal, exit 4, never a
traceback).  A reply that is not a JSON object is a
``ServiceClientError`` of kind ``protocol``, not an assertion.

``ServiceClient.job(job_id, wait=True)`` is the long-poll behind
``repro submit --wait``: the daemon answers once the job is terminal
(or after ``MAX_JOB_WAIT_S`` seconds), so no client sleeps between
polls.

``ServiceClient.from_spool`` discovers a running daemon through the
``endpoint.json`` the daemon publishes at bind time, so tests and the
CLI never have to guess a port.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Union

from ..errors import ReproError
from ..io import ArtifactError, parse_artifact_bytes, parse_artifact_text
from .jobs import MAX_JOB_WAIT_S

__all__ = ["ENDPOINT_FILENAME", "RETRYABLE_STATUSES", "ServiceClient",
           "ServiceClientError", "read_endpoint"]

#: The file in the spool where the daemon publishes its bound address.
ENDPOINT_FILENAME = "endpoint.json"

#: Statuses whose typed envelopes carry an authoritative retry hint:
#: 429 queue-full, 503 draining, 507 disk-pressure.
RETRYABLE_STATUSES = (429, 503, 507)


class ServiceClientError(ReproError):
    """A refusal (or transport failure) talking to the campaign daemon.

    Carries the server's machine-readable ``kind``, the HTTP status and
    any ``retry_after_s`` hint from the typed error envelope.
    """

    def __init__(self, message: str, *, kind: str = "transport",
                 http_status: Optional[int] = None,
                 retry_after_s: Optional[float] = None):
        super().__init__(message)
        self.kind = kind
        self.http_status = http_status
        self.retry_after_s = retry_after_s


def read_endpoint(spool: Union[str, Path]) -> Dict[str, object]:
    """The live daemon's published address, from ``endpoint.json``."""
    path = Path(spool) / ENDPOINT_FILENAME
    try:
        document = parse_artifact_text(path.read_text(encoding="utf-8"),
                                       source=path)
    except OSError as exc:
        raise ServiceClientError(
            f"no service endpoint at {path} — is `repro serve` running "
            f"against this spool?", kind="no-endpoint") from exc
    except ArtifactError as exc:
        raise ServiceClientError(
            f"endpoint file {path} is not valid JSON: {exc}",
            kind="no-endpoint") from exc
    if not isinstance(document, dict) or "url" not in document:
        raise ServiceClientError(
            f"endpoint file {path} is missing the service url",
            kind="no-endpoint")
    return document


class ServiceClient:
    """Blocking JSON client for one campaign daemon.

    With ``retries > 0`` the client honours the server's typed backoff
    hints: a refusal whose envelope carries ``retry_after_s`` and one
    of :data:`RETRYABLE_STATUSES` (429 queue-full, 503 draining, 507
    disk-pressure) is retried after a capped exponential backoff with
    *deterministic* jitter — derived from the request identity, not a
    clock or RNG, so two processes hammering the same daemon desynch
    while any single call sequence stays reproducible.  Everything
    else (400s, 404s, transport failures) is never retried.
    """

    def __init__(self, base_url: str, *, timeout_s: float = 30.0,
                 retries: int = 0, backoff_cap_s: float = 30.0,
                 sleep: Callable[[float], None] = time.sleep):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = float(timeout_s)
        self.retries = int(retries)
        self.backoff_cap_s = float(backoff_cap_s)
        self._sleep = sleep

    @classmethod
    def from_spool(cls, spool: Union[str, Path], *,
                   timeout_s: float = 30.0,
                   retries: int = 0) -> "ServiceClient":
        endpoint = read_endpoint(spool)
        return cls(str(endpoint["url"]), timeout_s=timeout_s,
                   retries=retries)

    # -- transport ---------------------------------------------------------

    def backoff_s(self, path: str, attempt: int,
                  retry_after_s: float) -> float:
        """The delay before retry ``attempt`` (0-based) of ``path``.

        ``min(cap, retry_after * 2^attempt)`` plus up to 25% jitter
        keyed on (url, path, attempt) — deterministic, so tests can
        assert it and identical clients still fan out in time.
        """
        base = min(self.backoff_cap_s,
                   float(retry_after_s) * (2.0 ** attempt))
        seed = hashlib.sha256(
            f"{self.base_url}|{path}|{attempt}".encode("utf-8")).digest()
        jitter = int.from_bytes(seed[:4], "big") / 0xFFFFFFFF
        return min(self.backoff_cap_s, base * (1.0 + 0.25 * jitter))

    def _request(self, method: str, path: str,
                 body: Optional[Mapping[str, object]] = None,
                 timeout_s: Optional[float] = None,
                 ) -> Dict[str, object]:
        for attempt in range(self.retries + 1):
            try:
                return self._request_once(method, path, body, timeout_s)
            except ServiceClientError as exc:
                retryable = (attempt < self.retries
                             and exc.retry_after_s is not None
                             and exc.http_status in RETRYABLE_STATUSES)
                if not retryable:
                    raise
                self._sleep(self.backoff_s(path, attempt,
                                           exc.retry_after_s))
        raise AssertionError("unreachable: the loop returns or raises")

    def _request_once(self, method: str, path: str,
                      body: Optional[Mapping[str, object]] = None,
                      timeout_s: Optional[float] = None,
                      ) -> Dict[str, object]:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        url = self.base_url + path
        raw = self._fetch(urllib.request.Request(
            url, data=data, headers=headers, method=method), timeout_s)
        try:
            document = parse_artifact_bytes(raw, source=url)
        except ArtifactError as exc:
            raise ServiceClientError(
                f"campaign service at {self.base_url} sent a reply that "
                f"is not JSON: {exc}", kind="protocol") from exc
        if not isinstance(document, dict):
            raise ServiceClientError(
                f"campaign service at {self.base_url} answered "
                f"{method} {path} with a JSON {type(document).__name__}, "
                f"not an object", kind="protocol")
        return document

    def _fetch(self, request: urllib.request.Request,
               timeout_s: Optional[float] = None) -> bytes:
        """The reply body; every failure is a ServiceClientError."""
        try:
            with urllib.request.urlopen(
                    request, timeout=(self.timeout_s if timeout_s is None
                                      else timeout_s)) as reply:
                return reply.read()
        except urllib.error.HTTPError as exc:
            raise self._translate(exc) from exc
        except urllib.error.URLError as exc:
            raise ServiceClientError(
                f"cannot reach campaign service at {self.base_url}: "
                f"{exc.reason}", kind="transport") from exc
        except (OSError, http.client.HTTPException) as exc:
            # e.g. RemoteDisconnected when the daemon dies mid-request —
            # urllib surfaces it raw, not as a URLError.
            raise ServiceClientError(
                f"connection to campaign service at {self.base_url} "
                f"failed: {exc}", kind="transport") from exc

    @staticmethod
    def _translate(exc: urllib.error.HTTPError) -> ServiceClientError:
        kind, message, retry_after_s = "http", f"HTTP {exc.code}", None
        try:
            envelope = parse_artifact_bytes(exc.read())
            error = envelope["error"]
            kind = str(error["kind"])
            message = str(error["message"])
            if "retry_after_s" in error:
                retry_after_s = float(error["retry_after_s"])
        except Exception:  # noqa: BLE001 - the envelope is best-effort
            pass
        return ServiceClientError(message, kind=kind,
                                  http_status=exc.code,
                                  retry_after_s=retry_after_s)

    # -- API ---------------------------------------------------------------

    def submit(self, spec: Mapping[str, object], *,
               tenant: str = "default", priority: str = "normal",
               ) -> Dict[str, object]:
        return self._request("POST", "/v1/jobs", {
            "spec": dict(spec), "tenant": tenant, "priority": priority})

    def jobs(self) -> List[Dict[str, object]]:
        reply = self._request("GET", "/v1/jobs")
        return list(reply["jobs"])  # type: ignore[arg-type]

    def job(self, job_id: str, *, wait: bool = False) -> Dict[str, object]:
        """One job's status; with ``wait``, once it is terminal or
        :data:`MAX_JOB_WAIT_S` seconds passed."""
        if not wait:
            return self._request("GET", f"/v1/jobs/{job_id}")
        return self._request("GET", f"/v1/jobs/{job_id}?wait=1",
                             timeout_s=self.timeout_s + MAX_JOB_WAIT_S)

    def result(self, job_id: str) -> Dict[str, object]:
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> Dict[str, object]:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel", {})

    def status(self) -> Dict[str, object]:
        return self._request("GET", "/v1/status")

    def metrics_text(self) -> str:
        return self._fetch(urllib.request.Request(
            self.base_url + "/v1/metrics")).decode("utf-8")
