"""One benchmark run: starting, timing, stopping and checking processes.

Every process the benchmark starts is a child of the benchmark process,
which also makes itself a child subreaper: a runner the daemon leaves
behind is re-parented here, so it can be detected, stopped and reaped.
Exits are observed through a pidfd, so an op's wall time ends when the
process exits, not at the next poll, and each child is reaped with
``wait4`` for its CPU time and peak RSS (a child's own figures
include the children it waited for, such as the daemon's runners).
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import random
import re
import select
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

__all__ = ["CALIBRATION", "REFERENCE_CALIBRATION_S", "Op", "Program", "Daemon", "Run", "BenchError", "op_seeds",
           "op_error", "submit_error", "audit_counters", "become_subreaper",
           "reap_leftovers", "environment"]

#: An op slower than this is killed and counted as failed.
OP_TIMEOUT_S = 30.0
#: No op starts after this much of a run, so a run ends well inside 180 s.
RUN_DEADLINE_S = 120.0
#: Daemon start-ups per daemon run; ``setup_s`` is their median.
DAEMON_SETUPS = 3
#: A fixed load that does not involve the program: a fresh interpreter
#: importing numpy and scipy.stats, then small-array numpy calls.  Ops
#: are made of the same two kinds of work, so when the shared host runs
#: slower or faster, this load's time moves with theirs.
CALIBRATION = ("import numpy, scipy.stats\n"
               "rng = numpy.random.default_rng(0)\n"
               "for _ in range(4000):\n"
               "    a = rng.standard_normal(170)\n"
               "    a[numpy.abs(a) > 1.0].sum()\n")
#: End-to-end times are reported for a host on which the calibration
#: load takes this long, in wall time and in CPU time.
REFERENCE_CALIBRATION_S = 1.0

T = TypeVar("T")
_PR_SET_CHILD_SUBREAPER = 36
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_SUBMIT_LINE = re.compile(
    r"^job (j-[0-9a-f]{16}) (accepted|cached|already submitted) ", re.M)
_FINISH_LINE = re.compile(r"^job (j-[0-9a-f]{16}) finished: (\w+)", re.M)


class BenchError(RuntimeError):
    """The benchmark could not run its workload as specified."""


def become_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


@dataclass
class Op:
    """One finished process: what ran, how long, what it cost."""

    returncode: int
    wall_s: float
    start_utc_s: float
    end_utc_s: float
    cpu_s: float
    maxrss_kb: int
    timed_out: bool
    output: str

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.timed_out


def _wait(proc: subprocess.Popen, timeout_s: float):
    """Wait for ``proc`` to exit (SIGKILL at the timeout) and reap it.

    Returns ``(timed_out, rusage)``; sets ``proc.returncode``.
    """
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], timeout_s)
    finally:
        os.close(pidfd)
    if not ready:
        proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return not ready, usage


class Program:
    """The program in one checkout: how to run ``python -m repro``."""

    def __init__(self, root: Path, tmp: Path):
        self.root = root
        src = str(root / "src")
        inherited = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, TMPDIR=str(tmp),
                        PYTHONPATH=src if not inherited
                        else src + os.pathsep + inherited)

    def argv(self, args: Sequence[str]) -> List[str]:
        """The command line of ``repro <args>``."""
        return [sys.executable, "-m", "repro", *args]

    def spawn(self, argv: Sequence[str], log: Path) -> subprocess.Popen:
        with open(log, "wb") as out:
            return subprocess.Popen(list(argv), cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=subprocess.STDOUT)

    def run(self, argv: Sequence[str], log: Path, timeout_s: float) -> Op:
        """Run ``argv`` to completion; stdout+stderr go to ``log``."""
        start_utc = time.time()
        start = time.perf_counter()
        proc = self.spawn(argv, log)
        timed_out, usage = _wait(proc, timeout_s)
        wall = time.perf_counter() - start
        return Op(returncode=proc.returncode, wall_s=wall,
                  start_utc_s=start_utc, end_utc_s=start_utc + wall,
                  cpu_s=usage.ru_utime + usage.ru_stime,
                  maxrss_kb=usage.ru_maxrss, timed_out=timed_out,
                  output=log.read_text(errors="replace"))


def http_json(url: str, timeout_s: float = 5.0) -> Dict[str, object]:
    with urllib.request.urlopen(url, timeout=timeout_s) as reply:
        return json.loads(reply.read())


class Daemon:
    """One ``repro serve`` process on its own spool."""

    def __init__(self, program: Program, spool: Path, log: Path):
        self.program = program
        self.spool = spool
        self.log = log
        self.proc: Optional[subprocess.Popen] = None
        self.url: Optional[str] = None
        #: Max RSS of the daemon and its runners, known once it stopped.
        self.maxrss_kb = 0

    def start(self, timeout_s: float = 60.0) -> float:
        """Spawn the daemon; seconds until its first successful status."""
        start = time.perf_counter()
        self.proc = self.program.spawn(
            self.program.argv(["serve", "--spool", str(self.spool)]),
            self.log)
        endpoint = self.spool / "endpoint.json"
        while True:
            elapsed = time.perf_counter() - start
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited with status "
                                 f"{self.proc.returncode} during start-up; "
                                 f"see {self.log}")
            if elapsed > timeout_s:
                raise BenchError(f"daemon not ready after {timeout_s:g} s")
            try:
                url = json.loads(endpoint.read_text())["url"]
                http_json(url + "/v1/status", timeout_s=1.0)
            except (OSError, ValueError, KeyError, urllib.error.URLError):
                time.sleep(0.005)
                continue
            self.url = url
            return elapsed

    def status(self) -> Dict[str, object]:
        assert self.url is not None, "daemon not started"
        return http_json(self.url + "/v1/status")

    def cpu_s(self) -> float:
        """CPU of the daemon and of every runner it has reaped so far."""
        assert self.proc is not None, "daemon not started"
        text = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = text[text.rindex(")") + 2:].split()
        utime, stime, cutime, cstime = (int(f) for f in fields[11:15])
        return (utime + stime + cutime + cstime) / _CLK_TCK

    def stop(self, timeout_s: float = 30.0) -> None:
        """SIGTERM, wait for the drain, then check that no runner is left."""
        if self.proc is None or self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        timed_out, usage = _wait(self.proc, timeout_s)
        self.maxrss_kb = usage.ru_maxrss
        leftovers = reap_leftovers()
        if timed_out:
            raise BenchError(f"daemon ignored SIGTERM for {timeout_s:g} s "
                             f"and was killed")
        if self.proc.returncode != 0:
            raise BenchError(f"daemon exited with status "
                             f"{self.proc.returncode}; see {self.log}")
        if leftovers:
            raise BenchError(f"daemon left {len(leftovers)} process(es) "
                             f"running: {leftovers}")


def _children() -> List[int]:
    pids: List[int] = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            continue
    return pids


def reap_leftovers() -> List[str]:
    """Kill and reap every child still running; describe each one.

    Call only when no process started by the benchmark should exist.
    """
    found: Dict[int, str] = {}
    while True:
        for pid in _children():
            if pid in found:
                continue
            try:
                words = Path(f"/proc/{pid}/cmdline").read_bytes().decode(
                    errors="replace").split("\0")
                os.kill(pid, signal.SIGKILL)
            except OSError:
                words = []
            found[pid] = f"{pid} ({' '.join(words).strip()})"
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return list(found.values())
        if pid == 0:
            time.sleep(0.01)


def op_seeds(seed: int, stream: str, count: int) -> List[int]:
    """``count`` distinct program seeds derived from the workload seed."""
    return random.Random(f"{seed}:{stream}").sample(range(1, 2**31), count)


class Run:
    """One benchmark run: its scratch directory, processes and checks."""

    def __init__(self, root: Path, tmp: Path):
        self.tmp = tmp
        self.program = Program(root, tmp)
        self.started = time.perf_counter()
        self.daemons: List[Daemon] = []
        self.attempted = 0
        self.errors: List[str] = []
        self.peak_rss_kb = 0
        self.calibrations: List[Op] = []

    def op(self, index: int, args: Sequence[str]) -> Op:
        """Run ``repro <args>`` as op ``index``."""
        op = self.program.run(self.program.argv(args),
                              self.tmp / f"op-{index}.log", OP_TIMEOUT_S)
        self.peak_rss_kb = max(self.peak_rss_kb, op.maxrss_kb)
        return op

    def calibrated(self, measure: Callable[[], T]) -> Tuple[T, Op]:
        """Time the calibration load, then call ``measure``.

        Returns what ``measure`` returns and the load, whose wall and
        CPU time just before give the host's speed for ``measure``.
        """
        load = self.program.run([sys.executable, "-I", "-c", CALIBRATION],
                                self.tmp / "calibration.log", OP_TIMEOUT_S)
        if not load.ok:
            raise BenchError(f"calibration load failed: {load.output}")
        self.calibrations.append(load)
        return measure(), load

    def peak_rss_mb(self) -> float:
        return max([self.peak_rss_kb]
                   + [d.maxrss_kb for d in self.daemons]) / 1024.0

    def check(self, label: str, error: Optional[str]) -> None:
        """Count one checked item; ``error`` is None when it was right."""
        self.attempted += 1
        if error is not None:
            self.errors.append(f"{label}: {error}")

    def closed_loop(self, seconds: float, first: int,
                    args: Callable[[int], Sequence[str]],
                    ) -> List[Tuple[Op, Op]]:
        """Calibrated ops ``first, first+1, ...`` back to back until they
        have taken ``seconds``; each comes with its calibration load."""
        timed: List[Tuple[Op, Op]] = []
        busy = 0.0
        while (busy < seconds
               and time.perf_counter() - self.started < RUN_DEADLINE_S):
            index = first + len(timed)
            timed.append(self.calibrated(
                lambda: self.op(index, args(index))))
            busy += timed[-1][0].wall_s
        return timed

    def start_daemon(self) -> Tuple[Daemon, List[Tuple[float, Op]]]:
        """Start ``DAEMON_SETUPS`` daemons on fresh spools, one after the
        other; keep the last running.  Returns it and every calibrated
        start-up time."""
        setups = []
        for k in range(DAEMON_SETUPS):
            daemon = Daemon(self.program, self.tmp / f"spool-{k}",
                            self.tmp / f"serve-{k}.log")
            self.daemons.append(daemon)
            setups.append(self.calibrated(daemon.start))
            if k < DAEMON_SETUPS - 1:
                daemon.stop()
        return daemon, setups


def op_error(op: Op) -> Optional[str]:
    if op.timed_out:
        return f"timed out after {OP_TIMEOUT_S:g} s"
    if op.returncode != 0:
        return f"exit status {op.returncode}: {op.output.strip()[-300:]}"
    return None


def submit_error(op: Op, job_id: str, verb: str) -> Optional[str]:
    """Why a ``repro submit --wait`` op did not report ``verb`` then done."""
    error = op_error(op)
    if error is not None:
        return error
    submitted = _SUBMIT_LINE.search(op.output)
    finished = _FINISH_LINE.search(op.output)
    if submitted is None or finished is None:
        return f"unexpected output: {op.output.strip()[-300:]}"
    if submitted.groups() != (job_id, verb):
        return (f"expected job {job_id} {verb}, got "
                f"{' '.join(submitted.groups())}")
    if finished.groups() != (job_id, "done"):
        return f"job finished {finished.group(2)}"
    return None


def audit_counters(run: Run, daemon: Daemon,
                   expected: Dict[str, int]) -> Dict[str, object]:
    """Check the daemon's ``/status`` counters at the end of a run."""
    status = daemon.status()
    counters = status["counters"]
    wrong = {name: counters.get(f"service.{name}", 0)
             for name, value in expected.items()
             if counters.get(f"service.{name}", 0) != value}
    run.check("status counters",
              None if not wrong and not status["running"] else
              f"expected {expected} and no runner, got {wrong} and "
              f"running {status['running']}")
    return counters


def environment() -> Dict[str, object]:
    """The machine and toolchain a measurement was taken on."""
    versions = {"python": platform.python_version()}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "loadavg": [round(x, 2) for x in os.getloadavg()],
            "platform": platform.platform(), "versions": versions}
