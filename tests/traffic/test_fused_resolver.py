"""Fusion invariance of the per-context encounter resolver.

``engine.resolve_batch`` draws on each counterpart class's own
sub-stream but runs the kinematics once over every class of a context.
Fusing must be invisible: resolving all classes together equals
resolving each class alone on an identical copy of its stream,
concatenating the blocks and canonical-sorting them — records, hard
demands and importance weights alike, compared with ``==``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.importance import WeightDiagnostics, bernoulli_log_ratio
from repro.traffic import (BrakingSystem, EncounterGenerator, ProposalTilt,
                           RecordBlock, aggressive_policy,
                           default_context_profiles, default_perception,
                           nominal_policy)
from repro.traffic.encounters import encounter_log_weights
from repro.traffic.engine import (resolve_batch, simulate_importance,
                                  simulate_vectorized)
from repro.traffic.simulator import SimulationConfig

WORLD = EncounterGenerator(default_context_profiles())
CONFIG = SimulationConfig(follower_presence_probability=0.5)

POLICIES = {
    "nominal": nominal_policy(),
    "capability-aware aggressive": replace(aggressive_policy(),
                                           capability_aware=True),
    "unaware aggressive": replace(aggressive_policy(),
                                  capability_aware=False),
}
BRAKING = {
    "default": BrakingSystem(),
    "often degraded": BrakingSystem(degradation_occupancy=0.2),
    "unreported": BrakingSystem(reports_capability=False,
                                degradation_occupancy=0.2),
}

cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32 - 1),
    "context": st.sampled_from(sorted(WORLD.contexts)),
    "hours": st.sampled_from([0.05, 1.0, 7.5, 40.0]),
    "policy": st.sampled_from(sorted(POLICIES)),
    "braking": st.sampled_from(sorted(BRAKING)),
})


def _per_class(generator, case, braking):
    """Resolve every class alone, each on a fresh copy of its stream."""
    policy = POLICIES[case["policy"]]
    classes = generator.active_classes(case["context"])
    streams = np.random.default_rng(case["seed"]).spawn(len(classes))
    for counterpart, stream in zip(classes, streams):
        batch = generator.sample_class_batch(
            case["context"], counterpart, case["hours"],
            policy.cue_probability, stream)
        yield (batch,) + resolve_batch(
            [batch], [stream], policy, default_perception(), braking,
            CONFIG)


@given(case=cases)
@settings(max_examples=30, deadline=None)
def test_simulate_vectorized_equals_per_class_resolution(case):
    braking = BRAKING[case["braking"]]
    fused = simulate_vectorized(
        POLICIES[case["policy"]], WORLD, default_perception(), braking,
        case["context"], case["hours"],
        np.random.default_rng(case["seed"]), CONFIG)
    parts = list(_per_class(WORLD, case, braking))
    alone = RecordBlock.concat([block for _, block, _, _, _ in parts])
    assert fused.record_block == alone.canonical_sort()
    assert fused.hard_braking_demands == sum(
        n_hard for *_, n_hard in parts)
    assert fused.encounters_resolved == sum(
        len(batch) for batch, *_ in parts)


@given(case=cases)
@settings(max_examples=30, deadline=None)
def test_fused_rows_are_the_per_class_concatenation(case):
    """Before sorting, too: rows, provenance and fault masks of the fused
    pass are the class-order concatenation of the per-class passes."""
    braking = BRAKING[case["braking"]]
    policy = POLICIES[case["policy"]]
    classes = WORLD.active_classes(case["context"])
    streams = np.random.default_rng(case["seed"]).spawn(len(classes))
    batches = [WORLD.sample_class_batch(case["context"], counterpart,
                                        case["hours"],
                                        policy.cue_probability, stream)
               for counterpart, stream in zip(classes, streams)]
    block, sources, degraded, n_hard = resolve_batch(
        batches, streams, policy, default_perception(), braking, CONFIG)

    parts = list(_per_class(WORLD, case, braking))
    offsets = np.cumsum([0] + [len(batch) for batch, *_ in parts])
    assert block == RecordBlock.concat([part[1] for part in parts])
    assert sources.tolist() == [
        int(source) + int(offset)
        for (_, _, part_sources, _, _), offset in zip(parts, offsets)
        for source in part_sources]
    assert degraded.tolist() == [
        bool(flag) for _, _, _, part_degraded, _ in parts
        for flag in part_degraded]
    assert n_hard == sum(n for *_, n in parts)


@given(case=cases,
       tilt=st.sampled_from([
           ProposalTilt(),
           ProposalTilt(rate_scale=2.0, sight_scale=0.6,
                        speed_shift_kmh=5.0, degradation_scale=4.0),
           ProposalTilt(sight_scale=0.3, degradation_scale=2.0)]))
@settings(max_examples=30, deadline=None)
def test_simulate_importance_equals_per_class_resolution(case, tilt):
    braking = BRAKING[case["braking"]]
    run = simulate_importance(
        POLICIES[case["policy"]], WORLD, default_perception(), braking,
        case["context"], case["hours"],
        np.random.default_rng(case["seed"]), CONFIG, tilt=tilt)

    nominal = braking.degradation_occupancy
    proposal_braking = braking.with_occupancy(
        nominal * tilt.degradation_scale)
    blocks, weights, diagnostics = [], [], WeightDiagnostics()
    for batch, block, sources, degraded, _ in _per_class(
            WORLD.tilted(tilt), case, proposal_braking):
        log_weights = encounter_log_weights(
            batch, WORLD.profile(case["context"]), tilt)
        if len(batch):
            log_weights += bernoulli_log_ratio(
                degraded, p_p=nominal,
                p_q=proposal_braking.degradation_occupancy)
        encounter_weights = np.exp(log_weights)
        diagnostics = diagnostics.merged(
            WeightDiagnostics.from_weights(encounter_weights))
        blocks.append(block)
        weights.append(encounter_weights[sources])
    alone = RecordBlock.concat(blocks)
    order = alone.canonical_order()

    assert run.result.record_block == alone.canonical_sort()
    assert run.record_weights.tolist() == \
        np.concatenate(weights)[order].tolist()
    assert run.diagnostics == diagnostics


def test_batches_must_share_one_context():
    policy = nominal_policy()
    streams = np.random.default_rng(0).spawn(2)
    batches = [WORLD.sample_class_batch(context, counterpart, 5.0,
                                        policy.cue_probability, stream)
               for context, counterpart, stream in zip(
                   ("urban", "rural"),
                   (WORLD.active_classes("urban")[0],
                    WORLD.active_classes("rural")[0]), streams)]
    with pytest.raises(ValueError, match="several contexts"):
        resolve_batch(batches, streams, policy, default_perception(),
                      BrakingSystem(), CONFIG)
    with pytest.raises(ValueError, match="streams"):
        resolve_batch(batches[:1], streams, policy, default_perception(),
                      BrakingSystem(), CONFIG)
