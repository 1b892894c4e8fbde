"""Client-side backoff honouring the server's typed retry hints.

No sockets: ``_request_once`` is stubbed and the sleep is recorded, so
every branch of the retry loop — and the exact deterministic backoff
schedule — is asserted without wall-clock time.
"""

from __future__ import annotations

import pytest

from repro.service import (RETRYABLE_STATUSES, ServiceClient,
                           ServiceClientError)


def refusal(status: int, retry_after_s=0.01) -> ServiceClientError:
    return ServiceClientError(f"refused with {status}", kind="test",
                              http_status=status,
                              retry_after_s=retry_after_s)


class Script:
    """A scripted transport: raises each queued error, then succeeds."""

    def __init__(self, errors):
        self.errors = list(errors)
        self.calls = 0

    def __call__(self, method, path, body=None, timeout_s=None):
        self.calls += 1
        if self.errors:
            raise self.errors.pop(0)
        return {"ok": True}


def client(script, retries=5, **kwargs) -> tuple:
    sleeps = []
    c = ServiceClient("http://127.0.0.1:1", retries=retries,
                      sleep=sleeps.append, **kwargs)
    c._request_once = script
    return c, sleeps


class TestBackoffSchedule:
    def test_deterministic(self):
        c = ServiceClient("http://127.0.0.1:1")
        assert c.backoff_s("/jobs", 0, 1.0) == c.backoff_s("/jobs", 0, 1.0)
        # Different request identity -> different jitter.
        assert c.backoff_s("/jobs", 0, 1.0) != c.backoff_s("/status", 0, 1.0)

    def test_grows_exponentially_from_the_server_hint(self):
        c = ServiceClient("http://127.0.0.1:1", backoff_cap_s=1000.0)
        delays = [c.backoff_s("/jobs", attempt, 2.0)
                  for attempt in range(4)]
        assert all(b > a for a, b in zip(delays, delays[1:]))
        for attempt, delay in enumerate(delays):
            base = 2.0 * (2.0 ** attempt)
            assert base <= delay <= base * 1.25

    def test_capped(self):
        c = ServiceClient("http://127.0.0.1:1", backoff_cap_s=3.0)
        assert c.backoff_s("/jobs", 10, 60.0) <= 3.0


class TestRetryLoop:
    def test_retries_then_succeeds(self):
        script = Script([refusal(429), refusal(429)])
        c, sleeps = client(script)
        assert c.status() == {"ok": True}
        assert script.calls == 3
        assert sleeps == [c.backoff_s("/v1/status", 0, 0.01),
                          c.backoff_s("/v1/status", 1, 0.01)]

    @pytest.mark.parametrize("status", sorted(RETRYABLE_STATUSES))
    def test_every_retryable_status(self, status):
        script = Script([refusal(status)])
        c, sleeps = client(script)
        assert c.status() == {"ok": True}
        assert len(sleeps) == 1

    def test_exhausted_retries_reraise(self):
        script = Script([refusal(429)] * 10)
        c, sleeps = client(script, retries=2)
        with pytest.raises(ServiceClientError, match="429"):
            c.status()
        assert script.calls == 3 and len(sleeps) == 2

    def test_non_retryable_status_fails_fast(self):
        script = Script([refusal(404)])
        c, sleeps = client(script)
        with pytest.raises(ServiceClientError, match="404"):
            c.status()
        assert script.calls == 1 and sleeps == []

    def test_no_hint_means_no_retry(self):
        # 507 *without* retry_after_s (e.g. hard spool error): the
        # server gave no promise it will get better — fail fast.
        script = Script([refusal(507, retry_after_s=None)])
        c, sleeps = client(script)
        with pytest.raises(ServiceClientError, match="507"):
            c.status()
        assert script.calls == 1 and sleeps == []

    def test_default_client_never_retries(self):
        script = Script([refusal(429)])
        c, sleeps = client(script, retries=0)
        with pytest.raises(ServiceClientError):
            c.status()
        assert script.calls == 1 and sleeps == []

    def test_transport_errors_never_retried(self):
        script = Script([ServiceClientError("connection refused",
                                            kind="transport")])
        c, sleeps = client(script)
        with pytest.raises(ServiceClientError, match="connection"):
            c.status()
        assert script.calls == 1 and sleeps == []
