"""The traced run: per-layer metrics, timed from the benchmark's own code.

Nothing in the program is instrumented.  Imports are timed as fresh
interpreters; the daemon's phases come from the timestamps its service
journal already records; everything else is timed around calls into
each layer's public functions, in this process.  For the campaign the
functions ``run_fleet`` reaches are wrapped for one in-process campaign
of the ``campaign`` workload's spec, and ``trace.overhead_share``
compares that wall time with the same campaign unwrapped.  Layer times
are inclusive: a layer called from inside another counts in both.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import oracle
from figures import durations, journal_phases, median
from harness import (Daemon, Run, audit_counters, op_seeds,
                     submit_error)

__all__ = ["measure"]

#: Fresh-interpreter imports; each is what that process pays before work.
IMPORT_PROBES = {
    "import.service_client_s": "import repro.service.client",
    # the runner module plus what its run_job imports on entry
    "import.service_runner_s": ("import repro.service.runner, "
                                "repro.service.store, repro.obs, "
                                "repro.traffic"),
    "import.traffic_s": "import repro.traffic",
    "import.service_server_s": "import repro.service.server",
}
IMPORT_REPS = 3
#: ``repro submit --wait`` ops whose journal phases are measured.
CLI_JOBS = 3
#: Repetitions of each in-process call that is timed on its own.
CALL_REPS = 5
#: Untraced/traced in-process campaign pairs, alternating.
CAMPAIGN_PAIRS = 2
JOURNAL_APPENDS = 50


def _timed(call: Callable[[], object]) -> Tuple[float, object]:
    start = time.perf_counter()
    value = call()
    return time.perf_counter() - start, value


def _median_of(call: Callable[[], object], reps: int = CALL_REPS) -> float:
    return median([_timed(call)[0] for _ in range(reps)])


# -- imports -----------------------------------------------------------------

def imports(run: Run) -> Dict[str, Tuple[float, str]]:
    def python(code: str, index: int):
        op = run.program.run([sys.executable, "-c", code],
                             run.tmp / f"import-{index}.log", 60.0)
        run.check(f"python -c {code!r}",
                  None if op.ok else f"exit {op.returncode}: {op.output}")
        return op

    walls: Dict[str, List[float]] = defaultdict(list)
    probes = {"import.python_bare_s": "pass", **IMPORT_PROBES}
    for rep in range(IMPORT_REPS):
        for k, (name, code) in enumerate(probes.items()):
            walls[name].append(python(code, rep * len(probes) + k).wall_s)
    bare = median(walls["import.python_bare_s"])
    metrics = {name: (median(w) - (0.0 if name == "import.python_bare_s"
                                   else bare), "s")
               for name, w in walls.items()}
    counted = python("import sys; n = len(sys.modules); "
                     "import repro.service.client; "
                     "print(len(sys.modules) - n)", -1)
    metrics["import.client_modules"] = (int(counted.output.split()[-1]),
                                        "count")
    return metrics


# -- service client / server / scheduler / supervisor / store / journal ------

def service(run: Run, seed: int) -> Dict[str, Tuple[float, str]]:
    from repro.service import (TERMINAL_STATES, CampaignSpec, JobResult,
                               JobStore, ServiceClient, ServiceJournal,
                               read_service_journal)

    seeds = op_seeds(seed, "trace", CLI_JOBS + 1)
    daemon = Daemon(run.program, run.tmp / "spool", run.tmp / "serve.log")
    run.daemons.append(daemon)
    daemon.start()
    spool = str(daemon.spool)
    ops = [run.op(i, ["submit", "--spool", spool, "--seed", str(s),
                      "--wait"])
           for i, s in enumerate(seeds[:CLI_JOBS])]
    for op, s in zip(ops, seeds):
        run.check(f"submit seed {s}",
                  submit_error(op, oracle.job_id(s, oracle.SUBMIT_HOURS),
                               "accepted"))

    client = ServiceClient(daemon.url)
    spec = {"policy": "nominal", "hours": oracle.SUBMIT_HOURS,
            "seed": seeds[-1], "engine": "vectorized"}
    submit_rtt, reply = _timed(lambda: client.submit(spec))
    job_id = str(reply["job"]["job_id"])
    job_rtts: List[float] = []
    while True:
        rtt, status = _timed(lambda: client.job(job_id))
        job_rtts.append(rtt)
        if status["job"]["state"] in TERMINAL_STATES:
            break
        time.sleep(0.05)
    run.check(f"in-process job {job_id}",
              None if status["job"]["state"] == "done"
              else f"ended {status['job']['state']}")
    cached_rtt = _median_of(lambda: client.submit(spec))
    audit_counters(run, daemon, {"submitted": CLI_JOBS + 1,
                                 "completed": CLI_JOBS + 1, "requeued": 0,
                                 "failed": 0})
    daemon.stop()

    records, _ = read_service_journal(daemon.spool
                                      / "service-journal.jsonl")
    phases = journal_phases(r.to_dict() for r in records)
    cli = {oracle.job_id(s, oracle.SUBMIT_HOURS): op
           for s, op in zip(seeds, ops)}
    for cli_job in cli:
        run.check(f"journal phases of {cli_job}",
                  None if set(phases.get(cli_job, ())) >= {
                      "submitted", "leased", "completed"}
                  else f"journal shows only {phases.get(cli_job)}")
    cli_phases = {j: p for j, p in phases.items() if j in cli}
    metrics = {
        "client.to_submitted_s": median(
            [p["submitted"] - cli[j].start_utc_s
             for j, p in cli_phases.items()]),
        "client.submit_rtt_s": submit_rtt,
        "client.cached_submit_rtt_s": cached_rtt,
        "client.job_rtt_s": median(job_rtts),
        "scheduler.queue_wait_s": median(
            durations(cli_phases, "submitted", "leased")),
        "supervisor.run_s": median(
            durations(cli_phases, "leased", "completed")),
        "client.wait_detect_s": median(
            [cli[j].end_utc_s - p["completed"]
             for j, p in cli_phases.items()]),
    }

    parsed = CampaignSpec.from_dict(spec)
    job_result = JobResult(spec_digest=parsed.digest, job_id=parsed.job_id,
                           result=oracle.fleet_result(seeds[-1],
                                                      oracle.SUBMIT_HOURS))
    store = JobStore(run.tmp / "store-probe")
    metrics["store.save_result_s"] = _median_of(
        lambda: store.save_result(job_result))
    metrics["store.load_result_s"] = _median_of(
        lambda: store.load_result(parsed.digest))
    run.check("store round trip",
              None if store.load_result(parsed.digest) == job_result
              else "loaded result differs from the saved one")
    journal = ServiceJournal.open(run.tmp / "journal-probe.jsonl")
    appends = [_timed(lambda: journal.emit("job.submitted", {
        "job_id": parsed.job_id, "tenant": "default", "priority": "normal",
        "submit_seq": k, "spec_digest": parsed.digest}))[0]
        for k in range(JOURNAL_APPENDS)]
    journal.close()
    metrics["journal.append_s"] = median(appends)
    return {name: (value, "s") for name, value in metrics.items()}


# -- traffic engine, fleet, classification, verdicts, manifest ---------------

class Tracer:
    """Wraps functions to sum their wall time and count what they did."""

    def __init__(self) -> None:
        self.busy: Dict[str, float] = defaultdict(float)
        self.count: Dict[str, int] = defaultdict(int)
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(self, owner: object, name: str, key: str,
             count: Optional[Callable[[object], int]] = None) -> None:
        raw = (owner.__dict__[name] if isinstance(owner, type)
               else getattr(owner, name))
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw

        def traced(*args, **kwargs):
            start = time.perf_counter()
            value = func(*args, **kwargs)
            self.busy[key] += time.perf_counter() - start
            if count is not None:
                self.count[key] += count(value)
            return value

        setattr(owner, name, classmethod(traced) if is_classmethod
                else traced)
        self._undo.append((owner, name, raw))

    def __enter__(self) -> "Tracer":
        from repro.traffic import (EncounterGenerator, RecordBlock,
                                   SimulationResult, engine, fleet)

        self.wrap(EncounterGenerator, "sample_class_batch",
                  "encounters.sample", len)
        self.wrap(engine, "resolve_batch", "engine.resolve", lambda _: 1)
        self.wrap(RecordBlock, "concat", "records.concat_sort")
        self.wrap(RecordBlock, "canonical_sort", "records.concat_sort")
        self.wrap(fleet, "simulate_mix", "simulator.chunk")
        self.wrap(fleet, "validate_chunk_output", "fleet.validate")
        self.wrap(SimulationResult, "merge_many", "simulator.merge")
        self.wrap(fleet, "run_chunked", "parallel.run_chunked")
        return self

    def __exit__(self, *exc_info: object) -> None:
        for owner, name, raw in reversed(self._undo):
            setattr(owner, name, raw)
        self._undo.clear()


def _scaled_goals():
    """The goal set ``repro fleet --telemetry`` verifies against."""
    from repro.core import (allocate_lp, derive_safety_goals, example_norm,
                            figure4_taxonomy, figure5_incident_types)

    types = list(figure5_incident_types())
    norm = example_norm().tightened(1e4, name="sim-scale QRN")
    allocation = allocate_lp(norm, types, objective="max-min")
    return derive_safety_goals(allocation,
                               taxonomy=figure4_taxonomy()), types


def campaign(run: Run, seed: int) -> Dict[str, Tuple[float, str]]:
    from repro.obs import BudgetMonitor, build_manifest, telemetry_session
    from repro.stats import plan_chunks
    from repro.traffic import DEFAULT_CHUNK_HOURS, DEFAULT_MIX, type_counts

    program_seed = op_seeds(seed, "campaign", oracle.CAMPAIGN_SEEDS)[0]
    hours = oracle.CAMPAIGN_HOURS

    def campaign_once():
        with telemetry_session() as session:
            wall, result = _timed(
                lambda: oracle.fleet_result(program_seed, hours))
        return wall, result, session

    plain_walls, traced_walls, tracers = [], [], []
    for _ in range(CAMPAIGN_PAIRS):
        wall, plain, session = campaign_once()
        plain_walls.append(wall)
        with Tracer() as tracer:
            wall, traced, _ = campaign_once()
        traced_walls.append(wall)
        tracers.append(tracer)
        run.check("traced campaign result",
                  None if traced == plain
                  else "wrapping the layers changed the result")

    def layer(key: str) -> float:
        return median([t.busy[key] for t in tracers])

    sampled = int(median([t.count["encounters.sample"] for t in tracers]))
    metrics = {
        "encounters.sample_s": (layer("encounters.sample"), "s"),
        "encounters.sampled": (sampled, "count"),
        "engine.resolve_s": (layer("engine.resolve"), "s"),
        "engine.batches": (int(median([t.count["engine.resolve"]
                                       for t in tracers])), "count"),
        "engine.resolve_us_per_encounter": (
            1e6 * layer("engine.resolve") / sampled, "us"),
        "records.concat_sort_s": (layer("records.concat_sort"), "s"),
        "simulator.chunk_s": (layer("simulator.chunk"), "s"),
        "fleet.validate_s": (layer("fleet.validate"), "s"),
        "simulator.merge_s": (layer("simulator.merge"), "s"),
        "parallel.overhead_s": (median(
            [t.busy["parallel.run_chunked"] - t.busy["simulator.chunk"]
             for t in tracers]), "s"),
        "fleet.run_s": (median(plain_walls), "s"),
        "trace.overhead_share": (median(traced_walls)
                                 / median(plain_walls), "ratio"),
    }

    goals, types = _scaled_goals()

    def verdict():
        monitor = BudgetMonitor(goals)
        monitor.observe_result(plain, types)
        return monitor.utilisation()

    report = verdict()
    snapshot = session.snapshot()
    manifest_path = run.tmp / "manifest-probe.json"

    def manifest():
        build_manifest(
            snapshot, command="repro fleet", seed=program_seed,
            engine="vectorized", policy=plain.policy_name, hours=hours,
            mix=dict(DEFAULT_MIX), workers=1,
            chunk_hours=DEFAULT_CHUNK_HOURS,
            n_chunks=len(plan_chunks(hours, DEFAULT_CHUNK_HOURS)),
            budget_report=report,
            summary=oracle.campaign_summary(program_seed, plain),
        ).write(manifest_path)

    metrics["incidents.classify_s"] = (
        _median_of(lambda: type_counts(plain, types)), "s")
    metrics["budget.verdict_s"] = (_median_of(verdict), "s")
    metrics["manifest.write_s"] = (_median_of(manifest), "s")
    return metrics


def measure(run: Run, seed: int) -> Dict[str, Dict]:
    """Every per-layer metric, for any workload."""
    metrics = imports(run)
    oracle.load_program(run.program.root)
    metrics.update(service(run, seed))
    metrics.update(campaign(run, seed))
    return {"metrics": metrics, "detail": {
        "import_reps": IMPORT_REPS, "cli_jobs": CLI_JOBS,
        "call_reps": CALL_REPS, "campaign_pairs": CAMPAIGN_PAIRS,
        "journal_appends": JOURNAL_APPENDS}}
