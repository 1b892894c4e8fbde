"""The in-process service core: admission, idempotence, cancel, drain.

These tests drive :class:`~repro.service.server.CampaignService`
directly — no HTTP, no supervisor thread, no runner processes — so every
admission-control branch is exercised fast and deterministically.  The
process-level story (real daemons, SIGKILL, recovery) lives in
``test_daemon.py`` under the ``service`` marker.
"""

from __future__ import annotations

import subprocess
import sys
import time

import pytest

from repro.io.artifact import ARTIFACTS
from repro.service import (CampaignService, CampaignSpec, DrainingError,
                           InvalidSubmissionError, JobRecord, JobResult,
                           JobStateError, Lease, QueueFullError,
                           ServiceJournal, SpoolError, UnknownJobError,
                           read_service_journal)
from repro.testing.chaos import SERVICE_CHAOS_ENV


def spec_payload(**overrides) -> dict:
    base = dict(policy="nominal", hours=8.0, seed=2020, chunk_hours=2.0)
    base.update(overrides)
    return base


@pytest.fixture
def service(tmp_path):
    service = CampaignService(tmp_path / "spool", queue_limit=3)
    yield service
    service.supervisor.stop()  # a grant leaves a spare runner behind


class TestSubmission:
    def test_submit_persists_before_acknowledging(self, service):
        record, created, cached = service.submit(spec_payload())
        assert created and not cached
        assert record.state == "queued"
        # The durable write happened before submit() returned: a kill
        # right now cannot lose the job.
        assert service.store.load_job(record.job_id).state == "queued"
        assert service.scheduler.queued_ids() == (record.job_id,)

    def test_resubmission_is_idempotent(self, service):
        first, created, _ = service.submit(spec_payload())
        again, created_again, cached = service.submit(spec_payload())
        assert created and not created_again and not cached
        assert again.job_id == first.job_id
        assert service.scheduler.depth() == 1  # not queued twice

    def test_submit_seq_increments_per_admission(self, service):
        a, _, _ = service.submit(spec_payload(seed=1))
        b, _, _ = service.submit(spec_payload(seed=2))
        assert (a.submit_seq, b.submit_seq) == (0, 1)

    def test_invalid_spec_is_typed_400(self, service):
        with pytest.raises(InvalidSubmissionError):
            service.submit(spec_payload(policy="reckless"))
        with pytest.raises(InvalidSubmissionError):
            service.submit({"policy": "nominal"})
        with pytest.raises(InvalidSubmissionError):
            service.submit(spec_payload(), priority="urgent")
        with pytest.raises(InvalidSubmissionError):
            service.submit(spec_payload(), tenant="")
        assert list(service.store.iter_jobs()) == []

    def test_queue_full_is_typed_429_and_nothing_persisted(self, service):
        for seed in (1, 2, 3):
            service.submit(spec_payload(seed=seed))
        with pytest.raises(QueueFullError) as excinfo:
            service.submit(spec_payload(seed=4))
        assert excinfo.value.retry_after_s > 0
        # The rejected job left no trace: not queued, not on disk.
        assert service.scheduler.depth() == 3
        assert len(list(service.store.iter_jobs())) == 3

    def test_draining_rejects_with_typed_503(self, service):
        service.draining = True
        with pytest.raises(DrainingError):
            service.submit(spec_payload())

    def test_spool_failure_rolls_back_admission(self, service,
                                                monkeypatch):
        monkeypatch.setenv(SERVICE_CHAOS_ENV, "fail@spool-write:job")
        with pytest.raises(SpoolError):
            service.submit(spec_payload())
        monkeypatch.delenv(SERVICE_CHAOS_ENV)
        # The queue slot was rolled back, so the spec resubmits cleanly.
        assert service.scheduler.depth() == 0
        record, created, _ = service.submit(spec_payload())
        assert created and record.state == "queued"


class TestResultCache:
    def seed_result(self, service, payload) -> JobResult:
        spec = CampaignSpec.from_dict(payload)
        cached = ARTIFACTS.get("repro.job-result").example()
        job_result = JobResult(spec_digest=spec.digest,
                               job_id=spec.job_id, result=cached.result,
                               chunks_resumed=0)
        service.store.save_result(job_result)
        return job_result

    def test_known_result_completes_at_submit_with_zero_compute(
            self, service):
        payload = spec_payload(seed=99)
        self.seed_result(service, payload)
        record, created, cached = service.submit(payload)
        assert created and cached
        assert record.state == "done"
        assert service.scheduler.depth() == 0  # never queued
        counters = service.metrics.snapshot().counters()
        assert counters["service.cache_hits"] == 1

    def test_cache_hit_is_cross_tenant(self, service):
        payload = spec_payload(seed=99)
        self.seed_result(service, payload)
        record, _, cached = service.submit(payload, tenant="acme")
        again, created, cached_again = service.submit(payload,
                                                      tenant="blue")
        assert cached and cached_again and not created
        assert again.job_id == record.job_id

    def test_resubmitting_a_done_job_is_a_cache_hit(self, service):
        record, _, _ = service.submit(spec_payload(hours=2.0,
                                                   chunk_hours=1.0))
        deadline = time.monotonic() + 120.0
        while service.store.load_job(record.job_id).state != "done":
            assert time.monotonic() < deadline, "job never finished"
            service.supervisor.tick()
            time.sleep(0.05)
        before = service.metrics.snapshot().counters()
        again, created, cached = service.submit(
            spec_payload(hours=2.0, chunk_hours=1.0))
        after = service.metrics.snapshot().counters()
        assert (again.job_id, created, cached) == (record.job_id, False,
                                                   True)
        assert after.get("service.cache_hits", 0) == \
            before.get("service.cache_hits", 0) + 1
        assert after["service.completed"] == before["service.completed"] == 1

    def test_dead_spare_at_handoff_costs_no_attempt(self, service):
        """A spare that died idle is replaced by a cold runner at the
        handoff: the job runs once, on attempt one."""
        dead = subprocess.Popen([sys.executable, "-c", "pass"],
                                stdin=subprocess.PIPE, bufsize=0)
        assert dead.wait(timeout=30) == 0
        service.supervisor._spare = dead
        record, _, _ = service.submit(spec_payload(hours=2.0,
                                                   chunk_hours=1.0,
                                                   seed=97))
        service.supervisor.tick()
        assert dead.stdin.closed
        runner = service.supervisor._runners[record.job_id]
        assert runner is not dead
        assert service.supervisor._spare not in (None, dead, runner)
        deadline = time.monotonic() + 120.0
        while service.store.load_job(record.job_id).state != "done":
            assert time.monotonic() < deadline, "job never finished"
            service.supervisor.tick()
            time.sleep(0.05)
        assert service.store.load_job(record.job_id).attempts == 1
        assert "service.requeued" not in \
            service.metrics.snapshot().counters()

    def test_result_committed_before_drain_sigterm_is_a_completion(
            self, service):
        """A runner that commits its result and then exits non-zero
        because a drain's SIGTERM landed after the commit completed the
        job: it is reaped as done, not cached, with no requeue and no
        attempt spent."""
        service._journal = ServiceJournal.open(service.store.journal_path)
        service.supervisor.draining = True
        payload = spec_payload(seed=98)
        spec = CampaignSpec.from_dict(payload)
        record = JobRecord.new(spec, tenant="acme", priority="normal",
                               submit_seq=0)
        lease = Lease(lease_id=1, epoch=service.epoch, pid=0, ttl_s=30.0)
        record = record.advanced("leased", lease=lease,
                                 attempts=1).advanced("running")
        service.store.save_job(record)
        self.seed_result(service, payload)
        proc = subprocess.Popen([sys.executable, "-c",
                                 "import sys; sys.exit(143)"])
        assert proc.wait(timeout=30) == 143
        service.supervisor._runners[record.job_id] = proc
        service.supervisor.tick()
        service._journal.close()

        reaped = service.store.load_job(record.job_id)
        assert reaped.state == "done"
        assert reaped.attempts == 1
        assert service.supervisor._runners == {}
        assert service.scheduler.depth() == 0
        records, _ = read_service_journal(service.store.journal_path)
        assert [r.kind for r in records] == ["job.completed"]
        assert records[0].data["cached"] is False
        counters = service.metrics.snapshot().counters()
        assert counters["service.completed"] == 1
        assert "service.cache_hits" not in counters
        assert "service.requeued" not in counters

    def test_result_envelope_requires_done(self, service):
        record, _, _ = service.submit(spec_payload())
        with pytest.raises(JobStateError):
            service.result_envelope(record.job_id)


class TestCancelAndQueries:
    def test_cancel_queued_job(self, service):
        record, _, _ = service.submit(spec_payload())
        cancelled = service.cancel(record.job_id)
        assert cancelled.state == "cancelled"
        assert service.scheduler.depth() == 0
        assert service.store.load_job(record.job_id).state == "cancelled"

    def test_cancel_terminal_job_is_conflict(self, service):
        record, _, _ = service.submit(spec_payload())
        service.cancel(record.job_id)
        with pytest.raises(JobStateError, match="already cancelled"):
            service.cancel(record.job_id)

    def test_unknown_job_is_404(self, service):
        with pytest.raises(UnknownJobError):
            service.get_job("j-doesnotexist")
        with pytest.raises(UnknownJobError):
            service.cancel("j-doesnotexist")

    def test_resubmitting_a_cancelled_spec_requeues_it(self, service):
        record, _, _ = service.submit(spec_payload())
        service.cancel(record.job_id)
        retried, created, cached = service.submit(spec_payload())
        assert created and not cached
        assert retried.job_id == record.job_id
        assert retried.state == "queued"
        assert retried.error is None
        assert service.scheduler.queued_ids() == (record.job_id,)

    def test_status_snapshot_shape(self, service):
        service.submit(spec_payload())
        status = service.status()
        assert status["queue_depth"] == 1
        assert status["jobs"] == {"queued": 1}
        assert status["draining"] is False
        assert status["counters"]["service.submitted"] == 1

    def test_metrics_text_is_prometheus(self, service):
        service.submit(spec_payload())
        text = service.metrics_text()
        assert "repro_service_submitted" in text


class TestJournalAudit:
    def test_start_and_admission_land_in_the_chain(self, service):
        service.start()
        try:
            record, _, _ = service.submit(spec_payload())
            service.cancel(record.job_id)
        finally:
            service.supervisor.stop()
        records, _ = read_service_journal(service.store.journal_path)
        kinds = [r.kind for r in records]
        assert kinds[:2] == ["service.started", "service.recovered"]
        assert "job.submitted" in kinds
        assert "job.cancelled" in kinds
