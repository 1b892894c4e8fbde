"""The supervisor: leases jobs to runner processes and survives them.

One daemon thread ticks over three duties, all under the service lock:

* **Reap** — collect exited runners.  A result artifact on disk is a
  completion after exit 0, and after any exit while the supervisor is
  interrupting runners itself (drain or minimal disk-pressure mode: the
  SIGTERM may land after the runner committed).  Otherwise exit 130
  during such an interruption parks the job back in ``queued`` (its
  checkpoint holds the progress) for the *next* daemon, and anything
  else is a crash, requeued up to ``max_attempts`` service attempts
  and then failed with the runner's parked diagnostic; a crash after
  the result commit is healed by the grant's cache check.
* **Watch heartbeats** — a lease whose heartbeat file stops advancing
  for a TTL is expired: the runner is SIGKILLed and the next reap
  requeues the job (resume from checkpoint makes a stale kill safe).
* **Fill slots** — while below ``max_runners`` and not draining, pull
  the scheduler's next fair-share pick and grant it a lease.  The grant
  order is the crash-safety choreography: *persist* the ``leased``
  record (with the daemon's epoch) first, journal it, and only then
  hand the job to a runner — a kill at any instant between leaves a
  record whose dead epoch recovery requeues, never a lost or
  double-run job.

A cache check guards every grant: if the spec's result artifact already
exists (committed by a runner the previous daemon never got to reap),
the job completes on the spot with zero compute.

**The spare runner.**  A runner spends most of a small job importing
numpy, scipy.special and the simulator, so the supervisor keeps exactly
one runner spawned ahead of need: ``python -m repro.service.runner
<spool>`` with a pipe on its stdin, imported and blocked reading a job
id (see :mod:`repro.service.runner`).  ``start()`` spawns the first
spare; a grant writes the job id to the spare's stdin, closes the pipe
and spawns the next.  The spare is a plain child of the daemon like any
runner, so exit codes, signals, leases and the daemon's child CPU
accounting are unchanged — it is simply not in the runner table until
it holds a job, so ``/status`` never lists it.  A spare found dead at
handoff is replaced by a cold spawn (no attempt is charged: the attempt
runs in the replacement).  Spares are spawned only at start and after a
handoff, so a runner that cannot start never crash-loops.  ``drain()``
and ``stop()`` retire the idle spare with SIGKILL — it holds no job and
never opened the spool.  When the daemon dies, the pipe's write end goes
with it, and the EOF makes the orphaned spare exit 0 without touching
the spool.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time
from typing import Callable, Dict, Optional

from ..testing.chaos import service_chaos
from .jobs import JobRecord
from .leases import LeaseTable
from .pressure import DiskPressureWatchdog
from .scheduler import FairShareScheduler, QueueEntry
from .store import JobResult, JobStore

__all__ = ["Supervisor"]


class Supervisor:
    """Process supervision for one daemon epoch."""

    def __init__(self, store: JobStore, scheduler: FairShareScheduler,
                 emit: Callable[..., None], metrics, lock: threading.RLock,
                 *, epoch: str, max_runners: int = 2,
                 lease_ttl_s: float = 30.0, max_attempts: int = 3,
                 poll_interval_s: float = 0.05,
                 clock: Callable[[], float] = time.monotonic,
                 watchdog: Optional[DiskPressureWatchdog] = None):
        self._store = store
        self._scheduler = scheduler
        self._emit = emit
        self._metrics = metrics
        self._lock = lock
        self.epoch = epoch
        self.max_runners = int(max_runners)
        self.max_attempts = int(max_attempts)
        self.poll_interval_s = float(poll_interval_s)
        self.draining = False
        self.watchdog = watchdog
        self._announced_mode = "nominal"
        self._leases = LeaseTable(epoch, ttl_s=lease_ttl_s, clock=clock)
        self._runners: Dict[str, subprocess.Popen] = {}
        self._spare: Optional[subprocess.Popen] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        with self._lock:
            self._spare = self._launch()
        self._thread = threading.Thread(target=self._loop,
                                        name="service-supervisor",
                                        daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.tick()
            self._stop.wait(self.poll_interval_s)

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._retire_spare()

    def tick(self) -> None:
        with self._lock:
            self._watch_pressure()
            self._reap()
            self._watch_heartbeats()
            self._fill_slots()
            self._metrics.gauge("service.queue_depth").set(
                self._scheduler.depth())
            self._metrics.gauge("service.running").set(len(self._runners))

    # -- disk pressure (DESIGN §15 degradation ladder) --------------------

    @property
    def pressure_mode(self) -> str:
        return "nominal" if self.watchdog is None else self.watchdog.mode

    def _watch_pressure(self) -> None:
        """Poll the watchdog; journal transitions; act on escalation.

        Entering ``minimal`` drains in-flight runners exactly like a
        graceful shutdown — SIGTERM, checkpoint flush, exit 130, job
        parked back in ``queued`` — so the disk's last headroom goes to
        completing durable state, not to half-written results.
        """
        if self.watchdog is None:
            return
        mode = self.watchdog.poll()
        self._metrics.gauge("service.disk_free_bytes").set(
            self.watchdog.free_bytes or 0)
        self._metrics.gauge("service.pressure_level").set(
            self.watchdog.level)
        if mode == self._announced_mode:
            return
        previous, self._announced_mode = self._announced_mode, mode
        self._emit("service.pressure", mode=mode, previous=previous,
                   free_bytes=self.watchdog.free_bytes)
        self._metrics.counter("service.pressure_transitions").inc()
        if mode == "minimal":
            for proc in self._runners.values():
                if proc.poll() is None:
                    proc.terminate()

    # -- recovery (before the loop starts) --------------------------------

    def recover(self) -> Dict[str, int]:
        """Fold the spool's job records back into live state after boot.

        Queued jobs re-enter the queue in their original admission
        order; leased/running records hold leases from a dead epoch and
        are either completed from a cached result (the runner finished,
        the old daemon never noticed) or requeued to resume from their
        checkpoint.  Terminal records are left alone.
        """
        counts = {"queued": 0, "requeued": 0, "completed": 0}
        with self._lock:
            for record in self._store.iter_jobs():
                if record.state == "queued":
                    self._enqueue(record, force=True)
                    counts["queued"] += 1
                elif record.state in ("leased", "running"):
                    if self._store.has_result(record.spec_digest):
                        result = self._store.load_result(record.spec_digest)
                        self._complete(record, result, cached=True)
                        counts["completed"] += 1
                    else:
                        record = record.advanced("queued", lease=None)
                        self._store.save_job(record)
                        self._emit("job.requeued", job_id=record.job_id,
                                   tenant=record.tenant, reason="recovery",
                                   attempts=record.attempts)
                        self._metrics.counter("service.requeued").inc()
                        self._enqueue(record, force=True)
                        counts["requeued"] += 1
        return counts

    # -- queue plumbing ---------------------------------------------------

    def _enqueue(self, record: JobRecord, *, force: bool = False) -> None:
        self._scheduler.submit(
            QueueEntry(job_id=record.job_id, tenant=record.tenant,
                       priority=record.priority,
                       submit_seq=record.submit_seq),
            force=force)

    # -- reaping ----------------------------------------------------------

    def _reap(self) -> None:
        for job_id, proc in list(self._runners.items()):
            returncode = proc.poll()
            if returncode is None:
                continue
            del self._runners[job_id]
            self._leases.release(job_id)
            record = self._store.load_job(job_id)
            if record.state == "cancelled":
                self._store.clear_runner_state(job_id)
                continue
            interrupted = self.draining or self.pressure_mode == "minimal"
            if (returncode == 0 or interrupted) \
                    and self._store.has_result(record.spec_digest):
                # Our own SIGTERM can land after the runner committed its
                # result: that is a completion, whatever the exit status.
                result = self._store.load_result(record.spec_digest)
                self._complete(record, result, cached=False)
            elif returncode == 130 and interrupted:
                # Graceful drain (shutdown or minimal-mode disk
                # pressure): the checkpoint holds the progress; park the
                # job until the next daemon — or the next nominal mode.
                record = record.advanced("queued", lease=None)
                self._store.save_job(record)
                self._emit("job.requeued", job_id=job_id,
                           tenant=record.tenant,
                           reason=("drain" if self.draining
                                   else "disk-pressure"),
                           attempts=record.attempts)
                if not self.draining:
                    self._enqueue(record, force=True)
            else:
                self._handle_crash(record, returncode)

    def _handle_crash(self, record: JobRecord, returncode: int) -> None:
        if record.attempts >= self.max_attempts:
            error = (self._store.read_job_error(record.job_id)
                     or f"runner exited with status {returncode}")
            record = record.advanced("failed", lease=None, error=error)
            self._store.save_job(record)
            self._emit("job.failed", job_id=record.job_id,
                       tenant=record.tenant, attempts=record.attempts,
                       returncode=returncode, error=error)
            self._metrics.counter("service.failed").inc()
            return
        record = record.advanced("queued", lease=None)
        self._store.save_job(record)
        self._emit("job.requeued", job_id=record.job_id,
                   tenant=record.tenant, reason="crash",
                   returncode=returncode, attempts=record.attempts)
        self._metrics.counter("service.requeued").inc()
        if not self.draining:
            self._enqueue(record, force=True)

    def _complete(self, record: JobRecord, result: JobResult, *,
                  cached: bool) -> None:
        record = record.advanced("done", lease=None, error=None,
                                 chunks_resumed=result.chunks_resumed)
        self._store.save_job(record)
        self._store.clear_runner_state(record.job_id)
        self._emit("job.completed", job_id=record.job_id,
                   tenant=record.tenant, cached=cached,
                   attempts=record.attempts,
                   chunks_resumed=result.chunks_resumed,
                   spec_digest=record.spec_digest)
        self._metrics.counter("service.completed").inc()
        if cached:
            self._metrics.counter("service.cache_hits").inc()

    # -- heartbeats -------------------------------------------------------

    def _watch_heartbeats(self) -> None:
        for job_id in self._leases.live_jobs():
            self._leases.observe_beat(job_id,
                                      self._store.read_beat(job_id))
            if self._leases.expired(job_id):
                proc = self._runners.get(job_id)
                if proc is not None and proc.poll() is None:
                    proc.kill()  # the next reap requeues from checkpoint

    # -- granting ---------------------------------------------------------

    def _fill_slots(self) -> None:
        while not self.draining and self.pressure_mode == "nominal" \
                and len(self._runners) < self.max_runners:
            entry = self._scheduler.next_job()
            if entry is None:
                return
            self._grant(entry)

    def _grant(self, entry: QueueEntry) -> None:
        record = self._store.load_job(entry.job_id)
        if record.state != "queued":
            return  # cancelled (or otherwise moved on) while queued
        if self._store.has_result(record.spec_digest):
            result = self._store.load_result(record.spec_digest)
            self._complete(record, result, cached=True)
            return
        lease = self._leases.grant(record.job_id, pid=0)
        record = record.advanced("leased", lease=lease,
                                 attempts=record.attempts + 1)
        self._store.save_job(record)
        self._emit("job.leased", job_id=record.job_id,
                   tenant=record.tenant, attempt=record.attempts,
                   lease_id=lease.lease_id, epoch=lease.epoch)
        service_chaos("lease-grant")
        proc = self._hand_off(record.job_id)
        self._runners[record.job_id] = proc
        record = record.advanced(
            "running",
            lease=type(lease)(lease_id=lease.lease_id, epoch=lease.epoch,
                              pid=proc.pid, ttl_s=lease.ttl_s))
        self._store.save_job(record)

    # -- runner processes -------------------------------------------------

    def _launch(self) -> subprocess.Popen:
        """A runner that imports, then waits for its job id on stdin."""
        return subprocess.Popen(
            [sys.executable, "-m", "repro.service.runner",
             str(self._store.root)], stdin=subprocess.PIPE, bufsize=0)

    @staticmethod
    def _send_job(proc: subprocess.Popen, job_id: str) -> bool:
        """Write the job id and close the pipe; False if the runner is
        already dead (its end of the pipe is closed)."""
        try:
            proc.stdin.write(f"{job_id}\n".encode("ascii"))
            return True
        except BrokenPipeError:
            proc.wait()
            return False
        finally:
            proc.stdin.close()

    def _hand_off(self, job_id: str) -> subprocess.Popen:
        proc, self._spare = self._spare, None
        if proc is None or not self._send_job(proc, job_id):
            # No live spare: a cold runner takes the job.  Should it die
            # before reading, the reap sees an ordinary crash.
            proc = self._launch()
            self._send_job(proc, job_id)
        # The next spare, spawned only after a handoff: a runner that
        # cannot even import costs one process per grant, no more.
        self._spare = self._launch()
        return proc

    def _retire_spare(self) -> None:
        # An idle spare holds no job and never opened the spool.
        with self._lock:
            spare, self._spare = self._spare, None
        if spare is not None:
            spare.stdin.close()
            spare.kill()
            spare.wait()

    # -- drain + hard teardown --------------------------------------------

    def interrupt_runner(self, job_id: str) -> None:
        """SIGTERM one runner (cancellation of a running job)."""
        proc = self._runners.get(job_id)
        if proc is not None and proc.poll() is None:
            proc.terminate()

    def drain(self, timeout_s: float = 30.0) -> None:
        """Stop granting, interrupt every runner, reap them all.

        Runners flush their checkpoints on SIGTERM and exit 130; the
        reap path parks their jobs in ``queued`` so a restarted daemon
        resumes without re-simulating a single committed chunk.
        """
        with self._lock:
            self.draining = True
            for proc in self._runners.values():
                if proc.poll() is None:
                    proc.terminate()
        self._retire_spare()
        deadline = time.monotonic() + timeout_s
        while True:
            with self._lock:
                self._reap()
                if not self._runners:
                    return
                if time.monotonic() > deadline:
                    for proc in self._runners.values():
                        if proc.poll() is None:
                            proc.kill()
            time.sleep(0.05)

    def running_jobs(self) -> Dict[str, int]:
        with self._lock:
            return {job_id: proc.pid
                    for job_id, proc in self._runners.items()}
