"""The long-poll behind ``repro submit --wait``: ``GET /v1/jobs/<id>?wait``.

The core tests drive :meth:`CampaignService.job_status` from a waiter
thread and settle the job from the test thread, the way the supervisor
and the cancel route do; the wire tests serve one in-process
:class:`CampaignService` over HTTP (no supervisor, no runners).
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.io.artifact import ARTIFACTS
from repro.service import (CampaignService, CampaignSpec, JobRecord,
                           JobResult, Lease, ServiceClient)
from repro.service import server as server_module

#: How long the waiter is left blocked before the job is settled.
SETTLE_AFTER_S = 0.3


def spec_payload(**overrides) -> dict:
    base = dict(policy="nominal", hours=8.0, seed=2020, chunk_hours=2.0)
    base.update(overrides)
    return base


@pytest.fixture
def service(tmp_path):
    return CampaignService(tmp_path / "spool", max_attempts=2)


class Waiter(threading.Thread):
    """``job_status(job_id, wait=True)`` on its own thread, timed."""

    def __init__(self, service: CampaignService, job_id: str):
        super().__init__(daemon=True)
        self.service, self.job_id = service, job_id
        self.reply = None
        self.elapsed_s = None

    def run(self) -> None:
        start = time.monotonic()
        self.reply = self.service.job_status(self.job_id, wait=True)
        self.elapsed_s = time.monotonic() - start

    def result(self) -> tuple:
        self.join(timeout=60.0)
        assert not self.is_alive(), "the waiter never returned"
        return self.reply["job"]["state"], self.elapsed_s


def running_job(service: CampaignService, seed: int,
                attempts: int = 1) -> JobRecord:
    """A job persisted as leased to a runner of this daemon."""
    spec = CampaignSpec.from_dict(spec_payload(seed=seed))
    lease = Lease(lease_id=1, epoch=service.epoch, pid=0, ttl_s=30.0)
    record = JobRecord.new(spec, tenant="acme", priority="normal",
                           submit_seq=0).advanced(
        "leased", lease=lease, attempts=attempts).advanced("running")
    service.store.save_job(record)
    return record


def exited_runner(service: CampaignService, job_id: str,
                  status: int) -> None:
    """Install an already-exited runner for the next tick to reap."""
    proc = subprocess.Popen([sys.executable, "-c",
                             f"import sys; sys.exit({status})"])
    assert proc.wait(timeout=30) == status
    service.supervisor._runners[job_id] = proc


class TestWakeUp:
    def settle_later(self, service, job_id, settle) -> tuple:
        waiter = Waiter(service, job_id)
        waiter.start()
        time.sleep(SETTLE_AFTER_S)
        settle()
        state, elapsed_s = waiter.result()
        # It blocked until the job settled, then answered at once.
        assert SETTLE_AFTER_S <= elapsed_s < 10.0
        return state

    def test_woken_by_done(self, service):
        record = running_job(service, seed=41)
        cached = ARTIFACTS.get("repro.job-result").example()
        service.store.save_result(JobResult(
            spec_digest=record.spec_digest, job_id=record.job_id,
            result=cached.result, attempts=1, chunks_resumed=0))
        exited_runner(service, record.job_id, 0)
        assert self.settle_later(service, record.job_id,
                                 service.supervisor.tick) == "done"

    def test_woken_by_failed_after_max_attempts(self, service):
        record = running_job(service, seed=42,
                             attempts=service.supervisor.max_attempts)
        exited_runner(service, record.job_id, 1)
        assert self.settle_later(service, record.job_id,
                                 service.supervisor.tick) == "failed"

    def test_woken_by_cancel(self, service):
        record, _, _ = service.submit(spec_payload(seed=43))
        assert self.settle_later(
            service, record.job_id,
            lambda: service.cancel(record.job_id)) == "cancelled"

    def test_not_woken_by_a_requeue(self, service, monkeypatch):
        # A crash below max_attempts requeues: the job is not terminal,
        # so the waiter sleeps on until the cap.  (No free slot: the
        # tick must not grant the requeued job to a new runner.)
        monkeypatch.setattr(server_module, "MAX_JOB_WAIT_S", 1.0)
        service.supervisor.max_runners = 0
        record = running_job(service, seed=44)
        exited_runner(service, record.job_id, 1)
        waiter = Waiter(service, record.job_id)
        waiter.start()
        time.sleep(SETTLE_AFTER_S)
        service.supervisor.tick()
        state, elapsed_s = waiter.result()
        assert state == "queued"
        assert elapsed_s >= 1.0


class TestDeadline:
    def test_terminal_job_answers_at_once(self, service):
        record, _, _ = service.submit(spec_payload(seed=45))
        service.cancel(record.job_id)
        start = time.monotonic()
        reply = service.job_status(record.job_id, wait=True)
        assert reply["job"]["state"] == "cancelled"
        assert time.monotonic() - start < 1.0

    def test_wait_ends_at_the_cap(self, service, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_JOB_WAIT_S", 0.3)
        record, _, _ = service.submit(spec_payload(seed=46))
        start = time.monotonic()
        reply = service.job_status(record.job_id, wait=True)
        assert reply["job"]["state"] == "queued"
        assert 0.3 <= time.monotonic() - start < 10.0


@pytest.fixture
def http_service(service):
    httpd = server_module._ServiceHTTPServer(
        ("127.0.0.1", 0), server_module._Handler, service)
    thread = threading.Thread(target=httpd.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    try:
        yield service, f"http://{host}:{port}"
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10.0)


class TestWire:
    def test_malformed_wait_is_a_typed_400(self, http_service):
        service, url = http_service
        record, _, _ = service.submit(spec_payload(seed=48))
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"{url}/v1/jobs/{record.job_id}?wait=30", timeout=30.0)
        assert excinfo.value.code == 400
        envelope = json.loads(excinfo.value.read().decode("utf-8"))
        assert envelope["error"]["kind"] == "invalid-query"
        assert "'30'" in envelope["error"]["message"]

    def test_bare_wait_flag_long_polls(self, http_service, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_JOB_WAIT_S", 0.2)
        service, url = http_service
        record, _, _ = service.submit(spec_payload(seed=47))
        start = time.monotonic()
        with urllib.request.urlopen(f"{url}/v1/jobs/{record.job_id}?wait",
                                    timeout=30.0) as reply:
            assert json.load(reply)["job"]["state"] == "queued"
        assert 0.2 <= time.monotonic() - start < 10.0

    def test_client_long_poll_answers_an_unsettled_job(self, http_service,
                                                       monkeypatch):
        monkeypatch.setattr(server_module, "MAX_JOB_WAIT_S", 0.2)
        service, url = http_service
        record, _, _ = service.submit(spec_payload(seed=49))
        start = time.monotonic()
        reply = ServiceClient(url).job(record.job_id, wait=True)
        assert reply["job"]["state"] == "queued"
        assert "checkpoint" in reply
        assert 0.2 <= time.monotonic() - start < 10.0

    def test_client_long_poll_woken_over_http(self, http_service):
        service, url = http_service
        record, _, _ = service.submit(spec_payload(seed=50))
        threading.Timer(SETTLE_AFTER_S, service.cancel,
                        args=(record.job_id,)).start()
        start = time.monotonic()
        reply = ServiceClient(url).job(record.job_id, wait=True)
        assert reply["job"]["state"] == "cancelled"
        assert time.monotonic() - start < 10.0

    def test_unknown_job_long_poll_is_a_typed_404(self, http_service):
        _, url = http_service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{url}/v1/jobs/j-doesnotexist?wait=1",
                                   timeout=30.0)
        assert excinfo.value.code == 404
