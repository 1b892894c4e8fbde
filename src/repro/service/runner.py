"""The campaign runner: one job, one process, crash-safe by checkpoint.

The supervisor launches ``python -m repro.service.runner <spool>`` as a
plain subprocess — a real OS process the lease layer can SIGTERM
(graceful drain), SIGKILL (chaos), and observe dying — and usually does
so *ahead* of need: the process imports everything :func:`run_job` uses
(numpy, scipy.special, the simulator, the store) and then blocks reading
one job id from stdin.  That idle process is the supervisor's spare; a
grant writes the job id to its stdin and closes the pipe, so the job
never waits for the imports.  Handoff protocol:

* **EOF before a job id** (the daemon died and took the pipe's write
  end with it) — the idle runner exits 0 without touching the spool: it
  never opened it.  (A draining daemon does not wait for that: it
  SIGKILLs its idle spare.)
* **a job id** — stdout and stderr are redirected to the job's
  ``jobs/<job_id>.log`` (until then they are the daemon's own), and the
  job runs.

The runner then:

1. loads its :class:`~repro.service.jobs.JobRecord` from the spool (the
   spec on disk is the contract — nothing is passed on the command line
   that could drift from it);
2. installs a SIGTERM handler that raises ``KeyboardInterrupt``, so a
   drain lands between chunks exactly like a Ctrl-C: the fleet runner
   flushes its checkpoint and the process exits 130 with every
   committed chunk banked;
3. starts a daemon heartbeat thread bumping the job's heartbeat file —
   the supervisor's liveness signal for hung-runner detection;
4. runs :func:`~repro.traffic.fleet.run_fleet` with
   ``checkpoint=<spool>/checkpoints/<job_id>.json, resume=True`` under a
   telemetry session.  ``resume=True`` against a missing file is an
   empty fresh start, so first attempt and requeued attempt are the
   same code path — and a requeue re-simulates only the missing chunks,
   reading ``parallel.chunks_resumed`` from the session to *prove* it;
5. writes the ``repro.job-result/v1`` artifact (content-addressed by
   spec digest) and exits 0.  The result write precedes the supervisor's
   record flip to ``done``; a kill between the two is healed by the
   cache check on recovery.

Exit codes: 0 = result committed, or EOF while idle; 130 = interrupted
(drain/cancel, the checkpoint holds the progress); 1 = campaign error
(diagnostic parked in ``jobs/<job_id>.error``); 2 = usage.

Chaos: each committed chunk passes the ``runner-chunk`` chaos point, so
the service chaos tier can SIGKILL a runner right after the Nth
checkpoint commit — the worst instant for resume correctness.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
from typing import List, Optional, Sequence

# Everything run_job touches is imported here, before the runner reads
# its job id: a spare pays these imports while it waits, not after the
# handoff (tests/test_import_layering.py checks nothing is left over).
from ..obs import telemetry_session
from ..testing.chaos import service_chaos
from ..traffic import (BrakingSystem, EncounterGenerator,
                       default_context_profiles, default_perception,
                       policy_by_name, run_fleet)
from .store import JobResult, JobStore

__all__ = ["main", "HEARTBEAT_INTERVAL_FRACTION"]

#: Heartbeats per lease TTL (beat every ``ttl_s * fraction`` seconds).
HEARTBEAT_INTERVAL_FRACTION = 0.2


def _install_sigterm_as_interrupt() -> None:
    def _handler(signum, frame):  # noqa: ANN001 - signal signature
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _handler)


def _start_heartbeat(store, job_id: str, interval_s: float,
                     stop: threading.Event) -> threading.Thread:
    def _beat() -> None:
        counter = 0
        while not stop.is_set():
            counter += 1
            try:
                store.beat(job_id, counter)
            except OSError:
                pass  # liveness reporting must never kill the campaign
            stop.wait(interval_s)

    thread = threading.Thread(target=_beat, name=f"heartbeat-{job_id}",
                              daemon=True)
    thread.start()
    return thread


def run_job(spool: str, job_id: str) -> int:
    """Execute one job to completion; returns the process exit code."""
    store = JobStore(spool)
    record = store.load_job(job_id)
    spec = record.spec
    lease_ttl_s = 30.0 if record.lease is None else record.lease.ttl_s

    _install_sigterm_as_interrupt()
    stop_beats = threading.Event()
    _start_heartbeat(store, job_id,
                     lease_ttl_s * HEARTBEAT_INTERVAL_FRACTION, stop_beats)

    def _progress(update) -> None:
        service_chaos("runner-chunk")

    try:
        with telemetry_session() as session:
            result = run_fleet(
                policy_by_name(spec.policy),
                EncounterGenerator(default_context_profiles()),
                default_perception(), BrakingSystem(), spec.mix,
                spec.hours, spec.seed, workers=spec.workers,
                chunk_hours=spec.chunk_hours, engine=spec.engine,
                progress=_progress,
                checkpoint=store.checkpoint_path(job_id), resume=True)
            chunks_resumed = int(session.snapshot().metrics.counters().get(
                "parallel.chunks_resumed", 0))
        store.save_result(JobResult(
            spec_digest=spec.digest, job_id=job_id, result=result,
            attempts=record.attempts, chunks_resumed=chunks_resumed))
        return 0
    except KeyboardInterrupt:
        # Drain or cancel: every committed chunk is already in the
        # checkpoint; the supervisor decides requeue vs cancelled.
        return 130
    except BaseException as exc:  # noqa: BLE001 - boundary diagnostic
        try:
            store.write_job_error(job_id,
                                  f"{type(exc).__name__}: {exc}")
        except OSError:
            pass
        return 1
    finally:
        stop_beats.set()


def _redirect_output(path: str) -> None:
    """Point fds 1 and 2 at the job's log (append), for this process
    and anything it spawns."""
    sys.stdout.flush()
    sys.stderr.flush()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.dup2(fd, 1)
        os.dup2(fd, 2)
    finally:
        os.close(fd)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args: List[str] = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 1:
        print("usage: python -m repro.service.runner SPOOL "
              "(the job id arrives on stdin)", file=sys.stderr)
        return 2
    try:
        job_id = sys.stdin.readline().strip()
    except KeyboardInterrupt:  # Ctrl-C on a foreground `repro serve`
        return 130
    if not job_id:
        return 0  # EOF: no job was ever handed over
    spool = args[0]
    _redirect_output(str(JobStore(spool).log_path(job_id)))
    return run_job(spool, job_id)


if __name__ == "__main__":
    raise SystemExit(main())
