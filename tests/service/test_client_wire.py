"""The client's wire boundary against a stub server that misbehaves.

Whatever comes back over HTTP — a JSON array where an object belongs,
bytes that are not JSON, an error envelope, a closed port — the client
raises a typed :class:`ServiceClientError`, and the CLI turns it into
one ``error:`` line and exit 4.  Nothing here may rest on ``assert``:
these checks must hold under ``python -O`` too.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.cli import main
from repro.service import ServiceClient, ServiceClientError


class StubHandler(BaseHTTPRequestHandler):
    """Answers every GET with the server's ``status`` and ``body``."""

    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002
        pass

    def do_GET(self):  # noqa: N802 - http.server API
        status, body = self.server.reply
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class NoLongPollHandler(StubHandler):
    """A daemon without long-polls: it ignores ``?wait`` and answers
    every GET at once, with the job ``running`` for the first
    ``RUNNING_GETS`` of them and ``done`` after."""

    RUNNING_GETS = 3

    def _job(self, state):
        return {"job_id": "j-0000000000000000", "state": state,
                "tenant": "default", "priority": "normal", "error": None}

    def do_POST(self):  # noqa: N802 - http.server API
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.reply = (200, json.dumps({
            "job": self._job("queued"), "created": True,
            "cached": False}).encode("utf-8"))
        StubHandler.do_GET(self)

    def do_GET(self):  # noqa: N802 - http.server API
        self.server.gets += 1
        state = ("running" if self.server.gets <= self.RUNNING_GETS
                 else "done")
        self.server.reply = (200, json.dumps(
            {"job": self._job(state)}).encode("utf-8"))
        StubHandler.do_GET(self)


def serve_stub(handler):
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    httpd.daemon_threads = True
    httpd.reply = (200, b"[]")
    thread = threading.Thread(target=httpd.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    httpd.url = f"http://{host}:{port}"
    try:
        yield httpd
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10.0)


@pytest.fixture
def stub():
    """A stub daemon; set ``stub.reply = (status, body)`` per test."""
    yield from serve_stub(StubHandler)


@pytest.fixture
def no_long_poll_stub():
    yield from serve_stub(NoLongPollHandler)


class TestReplyValidation:
    @pytest.mark.parametrize("body, shape", [(b"[]", "list"),
                                             (b"42", "int"),
                                             (b'"done"', "str")])
    def test_non_object_reply_is_a_protocol_error(self, stub, body, shape):
        stub.reply = (200, body)
        with pytest.raises(ServiceClientError) as excinfo:
            ServiceClient(stub.url).status()
        error = excinfo.value
        assert error.kind == "protocol"
        assert f"JSON {shape}, not an object" in str(error)
        assert "GET /v1/status" in str(error)

    def test_non_json_reply_is_a_protocol_error(self, stub):
        stub.reply = (200, b"<html>not json</html>")
        with pytest.raises(ServiceClientError) as excinfo:
            ServiceClient(stub.url).job("j-0000000000000000")
        assert excinfo.value.kind == "protocol"
        assert "not JSON" in str(excinfo.value)

    def test_object_reply_passes(self, stub):
        stub.reply = (200, b'{"jobs": []}')
        assert ServiceClient(stub.url).jobs() == []

    def test_cli_exits_4_on_a_list_reply(self, stub, tmp_path, capsys):
        stub.reply = (200, b"[]")
        (tmp_path / "endpoint.json").write_text(
            json.dumps({"url": stub.url}))
        assert main(["jobs", "--spool", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: campaign service at ")
        assert "not an object" in err
        assert "Traceback" not in err


class TestMetricsText:
    """``metrics_text`` shares the request helper's error translation."""

    def test_plain_text_reply(self, stub):
        stub.reply = (200, b"repro_service_submitted 3\n")
        assert ServiceClient(stub.url).metrics_text() == \
            "repro_service_submitted 3\n"

    def test_error_envelope_is_typed(self, stub):
        stub.reply = (503, json.dumps({"error": {
            "kind": "draining", "message": "draining",
            "retry_after_s": 2.0}}).encode("utf-8"))
        with pytest.raises(ServiceClientError) as excinfo:
            ServiceClient(stub.url).metrics_text()
        error = excinfo.value
        assert (error.kind, error.http_status, error.retry_after_s) == \
            ("draining", 503, 2.0)

    def test_closed_port_is_a_transport_error(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        with pytest.raises(ServiceClientError) as excinfo:
            ServiceClient(f"http://127.0.0.1:{port}",
                          timeout_s=5.0).metrics_text()
        assert excinfo.value.kind == "transport"


class TestWaitAgainstADaemonWithoutLongPolls:
    def test_submit_wait_is_paced(self, no_long_poll_stub, tmp_path,
                                  capsys):
        """A long-poll answered at once is not re-sent in a tight loop:
        the CLI asks at most every 0.2 s."""
        stub = no_long_poll_stub
        stub.gets = 0
        (tmp_path / "endpoint.json").write_text(
            json.dumps({"url": stub.url}))
        start = time.monotonic()
        assert main(["submit", "--spool", str(tmp_path), "--wait"]) == 0
        elapsed_s = time.monotonic() - start
        running = NoLongPollHandler.RUNNING_GETS
        assert stub.gets == running + 1
        assert elapsed_s >= running * 0.2
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "job j-0000000000000000 finished: done"
