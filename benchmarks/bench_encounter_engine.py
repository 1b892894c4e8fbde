"""E-VEC — Vectorized encounter engine: single-core speedup.

The ROADMAP's "as fast as the hardware allows" has two factors: PR 1
parallelised across cores, this engine vectorizes within one.  The QRN's
Eq. 1 verification burden (rare incident types demonstrated far below
budget) is what makes the factor matter — de Gelder & Op den Camp and
Putze et al. both put the required Monte-Carlo exposures far beyond what
scalar Python loops reach.

Measured here: wall clock of ``simulate_mix`` over the default context
mix, scalar vs vectorized, on one core, at the ISSUE's 200 h reference
workload and at 10× that to show the gap widening with scale.  Asserted:
≥3× speedup at 200 h (the acceptance criterion) and statistically
compatible incident statistics (the equivalence *proof* lives in
tests/traffic/test_engine_equivalence.py; the bench only sanity-checks
that the speed did not come from dropping work).

A second test times the path users run: a ``run_fleet`` campaign at
the default 250 h chunk size, reported as µs per encounter (best of
``ROUNDS``), and one instrumented pass that splits that time into
stages — encounter sampling, resolution, block build, canonical sort
and merge.  The vectorized resolver runs once per (chunk × context),
so the resolution stage is a handful of array passes per chunk.

Artifacts: ``benchmarks/output/logs/encounter_engine*.txt`` (tables)
and ``benchmarks/output/BENCH_encounter_engine.json`` (machine-readable
record of the measured speedups and the per-stage breakdown).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np
from conftest import smoke_scaled

from repro.reporting import render_table
from repro.traffic import (DEFAULT_CHUNK_HOURS, BrakingSystem,
                           EncounterGenerator, RecordBlock,
                           SimulationResult, default_context_profiles,
                           default_perception, engine, nominal_policy,
                           run_fleet, simulate_mix)

MIX = {"urban": 0.5, "suburban": 0.2, "rural": 0.2, "highway": 0.1}
SEED = 2020
REFERENCE_HOURS = 200.0   # the ISSUE-2 acceptance workload
SCALED_HOURS = 2000.0     # 10×: where the engines' scaling separates
ROUNDS = 3                # best-of to shed scheduler noise
CAMPAIGN_HOURS = smoke_scaled(20_000.0, 1_000.0)  # 80 default chunks

#: (stage, owner, attribute) — the functions each stage's time is
#: summed over.
STAGES = [
    ("sample", "generator", "sample_class_batch"),
    ("resolve", "engine", "resolve_batch"),
    ("block build", "block", "from_columns"),
    ("canonical sort", "block", "canonical_sort"),
    ("merge", "result", "merge_many"),
]


def _best_of(engine: str, hours: float, world) -> tuple:
    policy = nominal_policy()
    perception = default_perception()
    braking = BrakingSystem()
    best = float("inf")
    result = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = simulate_mix(policy, world, perception, braking, MIX,
                              hours, np.random.default_rng(SEED),
                              engine=engine)
        best = min(best, time.perf_counter() - start)
    return result, best


def test_vectorized_engine_speedup(benchmark, save_artifact, output_dir):
    world = EncounterGenerator(default_context_profiles())
    _best_of("vectorized", 50.0, world)  # warm both code paths
    _best_of("scalar", 50.0, world)

    scalar_ref, scalar_ref_s = _best_of("scalar", REFERENCE_HOURS, world)
    vector_ref, vector_ref_s = benchmark.pedantic(
        lambda: _best_of("vectorized", REFERENCE_HOURS, world),
        rounds=1, iterations=1)
    scalar_big, scalar_big_s = _best_of("scalar", SCALED_HOURS, world)
    vector_big, vector_big_s = _best_of("vectorized", SCALED_HOURS, world)

    speedup_ref = scalar_ref_s / vector_ref_s
    speedup_big = scalar_big_s / vector_big_s

    # The speed must not come from dropping encounters: the two engines
    # draw the same Poisson exposure model, so counts sit within a few
    # sigma of each other.
    for scalar, vector in ((scalar_ref, vector_ref),
                           (scalar_big, vector_big)):
        tolerance = 5.0 * np.sqrt(scalar.encounters_resolved
                                  + vector.encounters_resolved + 1.0)
        assert abs(scalar.encounters_resolved
                   - vector.encounters_resolved) <= tolerance

    rows = [
        [f"scalar, {REFERENCE_HOURS:g} h", f"{scalar_ref_s * 1e3:.1f}",
         "1.00x", f"{scalar_ref.encounters_resolved}"],
        [f"vectorized, {REFERENCE_HOURS:g} h", f"{vector_ref_s * 1e3:.1f}",
         f"{speedup_ref:.2f}x", f"{vector_ref.encounters_resolved}"],
        [f"scalar, {SCALED_HOURS:g} h", f"{scalar_big_s * 1e3:.1f}",
         "1.00x", f"{scalar_big.encounters_resolved}"],
        [f"vectorized, {SCALED_HOURS:g} h", f"{vector_big_s * 1e3:.1f}",
         f"{speedup_big:.2f}x", f"{vector_big.encounters_resolved}"],
    ]
    save_artifact("encounter_engine", render_table(
        ["configuration", "wall clock (ms)", "speedup", "encounters"],
        rows,
        title="Vectorized encounter engine: single-core simulate_mix, "
              "best of 3"))
    _update_pin(output_dir, {
        "workload": {"mix": MIX, "seed": SEED, "policy": "nominal",
                     "rounds_best_of": ROUNDS},
        "reference_hours": REFERENCE_HOURS,
        "scalar_s_at_reference": scalar_ref_s,
        "vectorized_s_at_reference": vector_ref_s,
        "speedup_at_reference": speedup_ref,
        "scaled_hours": SCALED_HOURS,
        "scalar_s_at_scaled": scalar_big_s,
        "vectorized_s_at_scaled": vector_big_s,
        "speedup_at_scaled": speedup_big,
    })

    # The acceptance criterion: ≥3× single-core at 200 simulated hours.
    assert speedup_ref >= 3.0, (
        f"expected >= 3x single-core speedup at {REFERENCE_HOURS:g} h, "
        f"got {speedup_ref:.2f}x")
    assert speedup_big >= speedup_ref * 0.9, (
        "vectorized advantage should not shrink with scale: "
        f"{speedup_big:.2f}x at {SCALED_HOURS:g} h vs "
        f"{speedup_ref:.2f}x at {REFERENCE_HOURS:g} h")


def _update_pin(output_dir, entries) -> None:
    """Merge ``entries`` into BENCH_encounter_engine.json (two tests
    write disjoint keys of the one pin)."""
    path = output_dir / "BENCH_encounter_engine.json"
    pin = json.loads(path.read_text()) if path.exists() else {}
    pin.update(entries)
    path.write_text(json.dumps(pin, indent=2) + "\n")


def _campaign(world):
    return run_fleet(nominal_policy(), world, default_perception(),
                     BrakingSystem(), MIX, CAMPAIGN_HOURS, SEED, workers=1,
                     chunk_hours=DEFAULT_CHUNK_HOURS)


def _stage_seconds(world, monkeypatch):
    """One campaign with every stage function wrapped in a timer.

    Times are exclusive: a stage called inside another (the block build
    inside resolution, the canonical sort inside a merge) is charged to
    itself only, so the stages add up without double counting.
    """
    owners = {"generator": EncounterGenerator, "engine": engine,
              "block": RecordBlock, "result": SimulationResult}
    busy = defaultdict(float)
    nested = []  # time spent in inner stages, one slot per active call
    for stage, owner_name, name in STAGES:
        owner = owners[owner_name]
        raw = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw

        def timed(*args, _func=func, _stage=stage, **kwargs):
            nested.append(0.0)
            start = time.perf_counter()
            try:
                return _func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                busy[_stage] += elapsed - nested.pop()
                if nested:
                    nested[-1] += elapsed

        monkeypatch.setattr(owner, name,
                            classmethod(timed) if is_classmethod else timed)
    start = time.perf_counter()
    result = _campaign(world)
    wall = time.perf_counter() - start
    monkeypatch.undo()
    return result, wall, dict(busy)


def test_default_chunk_cost_per_encounter(save_artifact, output_dir,
                                          monkeypatch):
    world = EncounterGenerator(default_context_profiles())
    _campaign(world)  # warm

    best = float("inf")
    result = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = _campaign(world)
        best = min(best, time.perf_counter() - start)
    encounters = result.encounters_resolved
    us_per_encounter = best * 1e6 / encounters

    traced, traced_wall, busy = _stage_seconds(world, monkeypatch)
    assert traced == result, "timing the stages changed the campaign"

    rows = [[stage, f"{busy[stage] * 1e3:.1f}",
             f"{busy[stage] * 1e6 / encounters:.3f}",
             f"{100.0 * busy[stage] / traced_wall:.1f}%"]
            for stage, _, _ in STAGES]
    rows.append(["campaign (untraced, best of "
                 f"{ROUNDS})", f"{best * 1e3:.1f}",
                 f"{us_per_encounter:.3f}", "--"])
    save_artifact("encounter_engine_stages", render_table(
        ["stage", "wall clock (ms)", "µs / encounter", "share of traced"],
        rows,
        title=f"run_fleet, {CAMPAIGN_HOURS:g} h in "
              f"{DEFAULT_CHUNK_HOURS:g} h chunks, one worker: "
              f"{encounters} encounters"))
    _update_pin(output_dir, {"default_chunk": {
        "campaign_hours": CAMPAIGN_HOURS,
        "chunk_hours": DEFAULT_CHUNK_HOURS,
        "encounters": encounters,
        "campaign_s": best,
        "us_per_encounter": us_per_encounter,
        "stages_us_per_encounter": {
            stage: busy[stage] * 1e6 / encounters
            for stage, _, _ in STAGES},
        "traced_campaign_s": traced_wall,
    }})

    # Exclusive stage times: each was hit, and together they fit in the
    # traced wall clock.
    assert all(busy[stage] > 0.0 for stage, _, _ in STAGES)
    assert sum(busy.values()) <= traced_wall
