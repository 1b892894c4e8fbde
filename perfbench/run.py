"""End-to-end benchmark of the ``repro`` CLI and campaign daemon.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 \\
        --trace 0

One closed-loop client keeps one op in flight for ``--seconds`` seconds
and times each op from process spawn to exit.  Every op runs the public
CLI in a fresh interpreter, as a user runs it, and every output is
checked against an in-process computation made after the timed window.
A calibration load timed before each op scales the reported times to a
reference host speed, since the shared host's speed drifts between
runs.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` instead
times calls into each layer (``perfbench/layers.py``) and prints the
per-layer metrics.  The last stdout line is the JSON result; the lines
before it describe the run.  See ``perfbench/README.md`` for the
workloads, the metrics and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import oracle
from figures import median, tail
from harness import (REFERENCE_CALIBRATION_S, BenchError, Op, Run,
                     audit_counters, become_subreaper, environment,
                     op_error, op_seeds, reap_leftovers, submit_error)

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
WORKLOADS = ("campaign", "daemon_fresh", "daemon_cached")
DEFAULT_SEED = 1


def end_to_end(run: Run, timed: List[Tuple[Op, Op]], extra_cpu_s: float,
               setups: List[Tuple[float, Op]]) -> Dict[str, Dict]:
    """The end-to-end metrics of one run, plus how they were taken.

    ``timed`` holds each timed op with the calibration load run just
    before it, and ``setups`` each set-up time with its load.  Each wall
    time is scaled by its own load's wall time, to the reference host's.
    The CPU per op, ``extra_cpu_s`` (the daemon's CPU over the ops)
    included, is scaled by the loads' median CPU time: a single load's
    CPU time is too noisy to pair.  The detail keeps the raw figures.
    """
    if not timed:
        raise BenchError("no op completed inside the run")
    ops = [op for op, _ in timed]
    latencies = [op.wall_s * wall_scale(load) for op, load in timed]
    tail_figure = tail(latencies)
    ok = sum(op.ok for op in ops)
    cpu = (sum(op.cpu_s for op in ops) + extra_cpu_s) / len(ops)
    cpu_scale = REFERENCE_CALIBRATION_S / median(
        [load.cpu_s for _, load in timed])
    metrics = {
        "latency_p50_s": (median(latencies), "s"),
        "latency_tail_s": (tail_figure["value"], "s"),
        "ops_per_s": (ok / sum(latencies), "1/s"),
        "cpu_s_per_op": (cpu * cpu_scale, "s"),
        "peak_rss_mb": (run.peak_rss_mb(), "MiB"),
        "ok_share": ((run.attempted - len(run.errors)) / run.attempted,
                     "share"),
        "setup_s": (median([t * wall_scale(load) for t, load in setups]),
                    "s"),
    }
    raw_walls = [op.wall_s for op in ops]
    detail = {
        "raw": {"latency_p50_s": median(raw_walls),
                "ops_per_s": ok / sum(raw_walls),
                "cpu_s_per_op": cpu,
                "setup_s": median([t for t, _ in setups])},
        "latency_samples": len(ops), "latency_tail": tail_figure,
        "latencies_raw_s": [round(x, 4) for x in raw_walls],
        "setup_samples_raw_s": [t for t, _ in setups],
        "calibration_wall_cpu_s": [(round(load.wall_s, 4),
                                    round(load.cpu_s, 4))
                                   for load in run.calibrations]}
    return {"metrics": metrics, "detail": detail}


def wall_scale(load: Op) -> float:
    return REFERENCE_CALIBRATION_S / load.wall_s


def campaign(run: Run, seed: int, seconds: int) -> Dict[str, Dict]:
    """Cold ``repro fleet`` campaigns of 100 000 h, one worker.

    One untimed op per program seed comes first; their median is the
    run's ``setup_s``.
    """
    seeds = op_seeds(seed, "campaign", oracle.CAMPAIGN_SEEDS)

    def args(i: int) -> List[str]:
        out = run.tmp / f"out-{i}"
        out.mkdir()
        return ["fleet", "--hours", f"{oracle.CAMPAIGN_HOURS:g}",
                "--workers", "1", "--seed", str(seeds[i % len(seeds)]),
                "--telemetry", str(out / "manifest.json"),
                "--json", str(out / "summary.json")]

    warmups = [run.calibrated(lambda: run.op(i, args(i)))
               for i in range(len(seeds))]
    timed = run.closed_loop(seconds, len(warmups), args)

    oracle.load_program(ROOT)
    expected = {s: oracle.campaign_summary(s) for s in seeds}
    pinned = json.loads((DATA / "campaign_expected.json").read_text())
    if seed == pinned["workload_seed"]:
        for s in seeds:
            run.check(f"pinned summary seed {s}",
                      None if pinned["summaries"].get(str(s)) == expected[s]
                      else "in-process summary differs from the pinned one")
    for i, (op, _) in enumerate(warmups + timed):
        s = seeds[i % len(seeds)]
        run.check(f"op {i} (fleet seed {s})",
                  campaign_error(op, run.tmp / f"out-{i}", expected[s]))
    result = end_to_end(run, timed, 0.0,
                        [(op.wall_s, load) for op, load in warmups])
    result["detail"]["program_seeds"] = seeds
    return result


def campaign_error(op: Op, out: Path,
                   expected: Dict[str, object]) -> Optional[str]:
    error = op_error(op)
    if error is not None:
        return error
    try:
        summary = json.loads((out / "summary.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return f"unreadable output: {exc}"
    if summary != expected:
        wrong = sorted(k for k in set(summary) | set(expected)
                       if summary.get(k) != expected.get(k))
        return f"summary differs from in-process run_fleet in {wrong}"
    if manifest.get("summary") != summary:
        return "telemetry manifest summary differs from --json summary"
    if not manifest.get("budget_utilisation") \
            or "Incident-type budget utilisation" not in op.output:
        return "no Eq. 1 budget-utilisation table"
    return None


def daemon_fresh(run: Run, seed: int, seconds: int) -> Dict[str, Dict]:
    """``repro submit --wait`` of never-used default-size specs."""
    seeds = op_seeds(seed, "daemon_fresh", 4096)
    daemon, setups = run.start_daemon()
    spool = str(daemon.spool)

    def args(i: int) -> List[str]:
        return ["submit", "--spool", spool, "--seed", str(seeds[i]),
                "--wait"]

    warm = run.op(0, args(0))
    cpu_before = daemon.cpu_s()
    timed = run.closed_loop(seconds, 1, args)
    daemon_cpu = daemon.cpu_s() - cpu_before

    oracle.load_program(ROOT)
    from repro.service import ServiceClient

    client = ServiceClient(daemon.url)
    ops = [warm] + [op for op, _ in timed]
    for i, op in enumerate(ops):
        job_id = oracle.job_id(seeds[i], oracle.SUBMIT_HOURS)
        error = submit_error(op, job_id, "accepted")
        if error is None:
            error = oracle.job_result_mismatch(
                client.result(job_id), seeds[i], oracle.SUBMIT_HOURS)
        run.check(f"op {i} (submit seed {seeds[i]})", error)
    counters = audit_counters(run, daemon, {
        "submitted": len(ops), "completed": len(ops), "cache_hits": 0,
        "requeued": 0, "failed": 0})
    daemon.stop()
    result = end_to_end(run, timed, daemon_cpu, setups)
    result["detail"].update(daemon_counters=counters,
                            program_seeds=seeds[:len(ops)])
    return result


def daemon_cached(run: Run, seed: int, seconds: int) -> Dict[str, Dict]:
    """``repro submit --wait`` of a spec the daemon has already done."""
    (fill_seed,) = op_seeds(seed, "daemon_cached", 1)
    daemon, setups = run.start_daemon()
    args = ["submit", "--spool", str(daemon.spool), "--seed",
            str(fill_seed), "--wait"]

    fill = run.op(0, args)
    cpu_before = daemon.cpu_s()
    timed = run.closed_loop(seconds, 1, lambda i: args)
    daemon_cpu = daemon.cpu_s() - cpu_before

    oracle.load_program(ROOT)
    from repro.service import ServiceClient

    job_id = oracle.job_id(fill_seed, oracle.SUBMIT_HOURS)
    error = submit_error(fill, job_id, "accepted")
    if error is None:
        error = oracle.job_result_mismatch(
            ServiceClient(daemon.url).result(job_id), fill_seed,
            oracle.SUBMIT_HOURS)
    run.check(f"fill (submit seed {fill_seed})", error)
    for i, (op, _) in enumerate(timed, start=1):
        run.check(f"op {i} (resubmit)", submit_error(op, job_id, "cached"))
    # A resubmission of a done job must not compute: only the fill was
    # ever submitted and completed.  The daemon's service.cache_hits
    # counts admissions of an unknown job whose result is already
    # stored, not resubmissions, so it is reported, not checked.
    counters = audit_counters(run, daemon, {
        "submitted": 1, "completed": 1, "requeued": 0, "failed": 0})
    daemon.stop()
    result = end_to_end(run, timed, daemon_cpu, setups)
    result["detail"].update(daemon_counters=counters,
                            program_seeds=[fill_seed])
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2

    def stop(signum: int, frame: object) -> None:
        raise SystemExit(128 + signum)  # unwinds through the clean-up below

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    become_subreaper()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    run = Run(ROOT, Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=scratch)))
    env_before = environment()
    try:
        if args.trace:
            import layers
            result = layers.measure(run, args.seed)
        else:
            workload = {"campaign": campaign, "daemon_fresh": daemon_fresh,
                        "daemon_cached": daemon_cached}[args.workload]
            result = workload(run, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for daemon in run.daemons:
            if daemon.proc is not None and daemon.proc.returncode is None:
                daemon.proc.kill()
        reap_leftovers()
        shutil.rmtree(run.tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    metrics = result["metrics"]
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>14.6g} {unit}")
    for error in run.errors:
        print(f"FAILED {error}")
    print(json.dumps({"detail": {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": {"before": env_before, "after": environment()},
        **result["detail"]}}, sort_keys=True))
    print(json.dumps({
        "correct": not run.errors, "attempted": run.attempted,
        "failed": len(run.errors),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
