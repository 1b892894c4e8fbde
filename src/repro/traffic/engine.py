"""Vectorized structure-of-arrays encounter engine.

The per-core hot path behind fleet-scale QRN verification.  The scalar
simulator (:mod:`.simulator`) resolves encounters one Python object at a
time — transparent, and kept as the reference oracle — but the sample
sizes that quantitative acceptance criteria demand (cf. de Gelder &
Op den Camp; Putze et al.) need the per-core path to be array code.  This
engine batches every draw and every kinematic resolution per
(context × counterpart class) group and only materialises
:class:`~repro.core.incident.IncidentRecord` objects for the rare
elements that actually become collisions, near-misses, or induced
incidents.

RNG sub-stream layout (the engine's determinism contract, also in
DESIGN §6):

* ``simulate(engine="vectorized")`` spawns **one child generator per
  active counterpart class** of the context, in the canonical order of
  :meth:`EncounterGenerator.active_classes` (sorted by class name).
* On its own sub-stream, each class group draws, whole-array and in this
  fixed order: Poisson count → arrival times → sight distances →
  counterpart speeds → cue uniforms (generation,
  :meth:`EncounterGenerator.sample_class_batch`); then capability
  uniforms → perception miss uniforms → perception fraction normals
  (resolution); then one follower uniform per hard-braking demand and
  one distance + one speed uniform per induced incident.
* Because every draw is whole-array on a private sub-stream, the results
  are a pure function of ``(seed, context, hours, class set)`` — no
  internal batching, chunking, or vector width can change them.

The draw *order* necessarily differs from the scalar path (which
interleaves classes by arrival time and skips draws branch-by-branch),
so scalar and vectorized runs of one seed are statistically — not
bitwise — equal; :mod:`tests.traffic.test_engine_equivalence` enforces
both that statistical agreement and exact record-level agreement on
single-encounter batches, where the layouts coincide.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from dataclasses import dataclass, field

from ..core.taxonomy import ActorClass
from ..obs.session import active_session, maybe_span
from ..stats.importance import WeightDiagnostics, bernoulli_log_ratio
from .dynamics import kmh_to_ms, ms_to_kmh, resolve_braking_arrays
from .encounters import (EncounterBatch, EncounterGenerator, ProposalTilt,
                         encounter_log_weights)
from .faults import BrakingSystem
from .perception import PerceptionModel
from .policy import TacticalPolicy

from .records import RecordBlock, actor_code

__all__ = ["resolve_batch", "resolve_block_traced", "simulate_vectorized",
           "simulate_importance", "ImportanceRun", "CROSSING_CLASSES"]

CROSSING_CLASSES = frozenset({ActorClass.VRU, ActorClass.ANIMAL,
                              ActorClass.STATIC_OBJECT})
"""Classes that block the ego's path: the closing speed is the ego's own
speed.  Same-direction traffic closes at the speed difference."""


def resolve_batch(batch: EncounterBatch, policy: TacticalPolicy,
                  perception: PerceptionModel, braking: BrakingSystem,
                  config: "SimulationConfig",
                  rng: np.random.Generator,
                  time_offset_h: float = 0.0,
                  ) -> Tuple[RecordBlock, int]:
    """Resolve one (context, class) batch; returns (block, hard demands).

    ``rng`` is the batch's own sub-stream, already advanced past the
    generation draws; this function performs the resolution draws in the
    documented order (capabilities, perception, follower) and then pure
    array math.  Incidents come back as one columnar
    :class:`~repro.traffic.records.RecordBlock` — no per-row Python
    objects on this path — unsorted (the caller canonicalises);
    ``block.to_records()`` materialises the object view when needed.
    """
    block, _, _, n_hard = resolve_block_traced(
        batch, policy, perception, braking, config, rng, time_offset_h)
    return block, n_hard


def resolve_block_traced(batch: EncounterBatch, policy: TacticalPolicy,
                         perception: PerceptionModel, braking: BrakingSystem,
                         config: "SimulationConfig",
                         rng: np.random.Generator,
                         time_offset_h: float = 0.0,
                         ) -> Tuple[RecordBlock, np.ndarray,
                                    np.ndarray, int]:
    """:func:`resolve_batch` plus per-record and per-encounter provenance.

    Returns ``(block, sources, degraded, n_hard)``: ``sources`` maps
    each block row to the index (within ``batch``) of the encounter that
    produced it — induced incidents point at the encounter whose hard
    stop triggered them — and ``degraded`` is the per-encounter braking
    fault-state mask.  Identical draws and arithmetic to
    :func:`resolve_batch`; the importance sampler uses the provenance to
    attach records their encounters' likelihood-ratio weights and to
    reweight tilted fault occupancies exactly.
    """
    n = len(batch)
    session = active_session()
    if session is not None:
        session.metrics.counter("engine.batches").inc()
        session.metrics.histogram("engine.batch_size").observe(n)
    if n == 0:
        return (RecordBlock.empty(), np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=bool), 0)
    with maybe_span("resolve_batch"):
        return _resolve_batch_body(batch, policy, perception, braking,
                                   config, rng, time_offset_h)


def _resolve_batch_body(batch: EncounterBatch, policy: TacticalPolicy,
                        perception: PerceptionModel, braking: BrakingSystem,
                        config: "SimulationConfig",
                        rng: np.random.Generator,
                        time_offset_h: float,
                        ) -> Tuple[RecordBlock, np.ndarray,
                                   np.ndarray, int]:
    n = len(batch)
    context = batch.context

    # Resolution draws — whole-array, fixed order.
    actual_capability, degraded = \
        braking.sample_capability_array_traced(rng, n)
    detection = perception.detection_distance_array(
        batch.sight_distance_m, context, rng)

    known_capability = braking.known_capability_array(actual_capability)
    ego_speed = policy.encounter_speed_ms_array(
        context, batch.cue_available, batch.sight_distance_m,
        known_capability, braking.nominal_ms2)
    if batch.counterpart in CROSSING_CLASSES:
        closing = ego_speed
    else:
        closing = np.maximum(
            ego_speed - kmh_to_ms(batch.counterpart_speed_kmh), 0.0)
    active = closing > 0.0

    comfort = np.minimum(policy.comfort_braking_ms2, actual_capability)
    outcome = resolve_braking_arrays(
        speed_ms=closing,
        distance_m=detection,
        comfort_deceleration=comfort,
        max_deceleration=actual_capability,
        reaction_time_s=policy.reaction_time_s,
    )
    # demanded > threshold covers the scalar path's isinf clause: an
    # infinite demand compares greater than any finite threshold.
    hard = active & (outcome.demanded_deceleration
                     > config.hard_braking_threshold_ms2)
    collided = active & outcome.collided
    closing_kmh = ms_to_kmh(closing)
    near_miss = (active & ~outcome.collided
                 & (outcome.stop_margin_m < config.near_miss_distance_m)
                 & (closing_kmh > config.near_miss_speed_kmh))

    times = batch.time_h + time_offset_h
    coll_idx = np.flatnonzero(collided)
    miss_idx = np.flatnonzero(near_miss)
    impact_kmh = ms_to_kmh(outcome.impact_speed_ms)
    min_distances = np.maximum(outcome.stop_margin_m, 1e-3)

    # Fig. 4's lower half: a hard ego stop with a close follower induces
    # an incident between third parties.  One uniform per hard demand,
    # then one distance and one speed uniform per induced incident.
    hard_indices = np.flatnonzero(hard)
    n_hard = int(hard_indices.size)
    if n_hard:
        follower = rng.uniform(size=n_hard) \
            < config.follower_presence_probability
        induced_indices = hard_indices[follower]
        n_induced = int(induced_indices.size)
        induced_distance = rng.uniform(0.3, 4.0, size=n_induced)
        induced_speed = rng.uniform(10.0, 60.0, size=n_induced)
    else:
        induced_indices = np.zeros(0, dtype=np.int64)
        n_induced = 0
        induced_distance = np.zeros(0)
        induced_speed = np.zeros(0)

    # Columnar assembly: rows are [collisions | near-misses | induced],
    # each segment in encounter order — the layout the per-row loops
    # used to produce — with no IncidentRecord objects constructed.
    n_coll = int(coll_idx.size)
    n_miss = int(miss_idx.size)
    total = n_coll + n_miss + n_induced
    sources = np.concatenate(
        [coll_idx, miss_idx, induced_indices]).astype(np.int64)

    counterpart = np.full(total, actor_code(batch.counterpart),
                          dtype=np.uint8)
    counterpart[n_coll + n_miss:] = actor_code(ActorClass.CAR)
    is_collision = np.zeros(total, dtype=bool)
    is_collision[:n_coll] = True
    induced_mask = np.zeros(total, dtype=bool)
    induced_mask[n_coll + n_miss:] = True
    delta_v = np.zeros(total)
    delta_v[:n_coll] = impact_kmh[coll_idx]
    min_distance = np.zeros(total)
    min_distance[n_coll:n_coll + n_miss] = min_distances[miss_idx]
    min_distance[n_coll + n_miss:] = induced_distance
    approach = np.empty(total)
    approach[:n_coll] = closing_kmh[coll_idx]
    approach[n_coll:n_coll + n_miss] = closing_kmh[miss_idx]
    approach[n_coll + n_miss:] = induced_speed

    block = RecordBlock.from_columns(
        counterpart=counterpart,
        is_collision=is_collision,
        delta_v_kmh=delta_v,
        min_distance_m=min_distance,
        approach_speed_kmh=approach,
        time_h=times[sources],
        context=np.zeros(total, dtype=np.uint16),
        context_table=(context,),
        induced=induced_mask)
    return block, sources, degraded, n_hard


def simulate_vectorized(policy: TacticalPolicy,
                        generator: EncounterGenerator,
                        perception: PerceptionModel,
                        braking: BrakingSystem,
                        context: str,
                        hours: float,
                        rng: np.random.Generator,
                        config: Optional["SimulationConfig"] = None,
                        *,
                        time_offset_h: float = 0.0) -> "SimulationResult":
    """Vectorized :func:`~repro.traffic.simulator.simulate`.

    Statistically interchangeable with the scalar engine but with a
    different, documented RNG layout (module docstring) — use one engine
    consistently within a campaign.  The incident stream stays columnar
    end-to-end (``result.record_block``) and materialises
    :class:`IncidentRecord` objects only when ``result.records`` is
    first touched, in canonical sorted order.
    """
    from .simulator import (SimulationConfig, SimulationResult,
                            _record_sim_metrics)
    if config is None:
        config = SimulationConfig()
    if time_offset_h < 0 or not math.isfinite(time_offset_h):
        raise ValueError(
            f"time offset must be finite and >= 0, got {time_offset_h}")
    if hours <= 0 or not math.isfinite(hours):
        raise ValueError(f"hours must be positive and finite, got {hours}")
    classes = generator.active_classes(context)
    streams = rng.spawn(len(classes)) if classes else []
    blocks: List[RecordBlock] = []
    encounters_resolved = 0
    hard_demands = 0
    with maybe_span("simulate.vectorized"):
        for counterpart, stream in zip(classes, streams):
            batch = generator.sample_class_batch(
                context, counterpart, hours, policy.cue_probability, stream)
            encounters_resolved += len(batch)
            class_block, n_hard = resolve_batch(
                batch, policy, perception, braking, config, stream,
                time_offset_h)
            blocks.append(class_block)
            hard_demands += n_hard
        block = RecordBlock.concat(blocks).canonical_sort()
        result = SimulationResult(
            policy_name=policy.name,
            hours=hours,
            context_hours={context: hours},
            records=block,
            encounters_resolved=encounters_resolved,
            hard_braking_demands=hard_demands,
            hard_braking_threshold_ms2=config.hard_braking_threshold_ms2,
        )
        _record_sim_metrics(
            hours=hours, encounters=encounters_resolved,
            incidents=len(block),
            collisions=block.collision_count,
            hard_demands=hard_demands)
        return result


@dataclass
class ImportanceRun:
    """One importance-sampled run: proposal-law output plus weights.

    ``result`` holds the raw *proposal-law* observations (its counts and
    rates are NOT nominal-law estimates); ``record_weights`` aligns with
    ``result.records`` and carries each record's likelihood-ratio weight,
    so ``Σ w·1[condition]`` is an unbiased nominal-law count estimate.
    ``diagnostics`` pools the weights of **all** proposal encounters (not
    only those that became records) — the ensemble whose effective sample
    size certifies the tilt.
    """

    result: "SimulationResult"
    record_weights: np.ndarray
    diagnostics: WeightDiagnostics = field(default_factory=WeightDiagnostics)

    def __post_init__(self) -> None:
        if len(self.record_weights) != self.result.num_records:
            raise ValueError(
                f"{len(self.record_weights)} weights for "
                f"{self.result.num_records} records")

    def weighted_collision_count(self) -> float:
        collided = self.result.record_block.array["is_collision"]
        return float(sum(self.record_weights[collided].tolist()))

    def weighted_collision_rate_per_hour(self) -> float:
        """Unbiased nominal-law collision rate from this run."""
        return self.weighted_collision_count() / self.result.hours


def simulate_importance(policy: TacticalPolicy,
                        generator: EncounterGenerator,
                        perception: PerceptionModel,
                        braking: BrakingSystem,
                        context: str,
                        hours: float,
                        rng: np.random.Generator,
                        config: Optional["SimulationConfig"] = None,
                        *,
                        tilt: ProposalTilt,
                        time_offset_h: float = 0.0) -> ImportanceRun:
    """:func:`simulate_vectorized` under a proposal tilt, with weights.

    ``generator`` is the *nominal* generator; sampling happens under
    ``generator.tilted(tilt)`` with the identical RNG sub-stream layout
    (one child per active class, same canonical order — positive rates
    stay positive under any tilt, so the class set and stream assignment
    match the nominal engine exactly).  A ``degradation_scale`` tilt runs
    the resolution under a braking system with the scaled fault
    occupancy and folds the exact Bernoulli ratio of each realised fault
    state into that encounter's weight.  Every record carries the
    Campbell weight of its source encounter (induced incidents inherit
    the weight of the encounter whose hard stop triggered them).

    With the identity tilt this is bit-for-bit :func:`simulate_vectorized`
    — same records, same draws — with every weight exactly 1.0.
    """
    from .simulator import (SimulationConfig, SimulationResult,
                            _record_sim_metrics)
    if config is None:
        config = SimulationConfig()
    if time_offset_h < 0 or not math.isfinite(time_offset_h):
        raise ValueError(
            f"time offset must be finite and >= 0, got {time_offset_h}")
    if hours <= 0 or not math.isfinite(hours):
        raise ValueError(f"hours must be positive and finite, got {hours}")
    proposal = generator.tilted(tilt)
    nominal_occupancy = braking.degradation_occupancy
    proposal_occupancy = nominal_occupancy * tilt.degradation_scale
    # Constructing the tilted system validates occupancy <= 1 up front.
    proposal_braking = braking.with_occupancy(proposal_occupancy)
    nominal_profile = generator.profile(context)
    classes = proposal.active_classes(context)
    streams = rng.spawn(len(classes)) if classes else []
    blocks: List[RecordBlock] = []
    weights: List[np.ndarray] = []
    diagnostics = WeightDiagnostics()
    encounters_resolved = 0
    hard_demands = 0
    with maybe_span("simulate.importance"):
        for counterpart, stream in zip(classes, streams):
            batch = proposal.sample_class_batch(
                context, counterpart, hours, policy.cue_probability, stream)
            log_weights = encounter_log_weights(batch, nominal_profile, tilt)
            encounters_resolved += len(batch)
            class_block, class_sources, degraded, n_hard = \
                resolve_block_traced(batch, policy, perception,
                                     proposal_braking, config, stream,
                                     time_offset_h)
            if len(batch):
                log_weights += bernoulli_log_ratio(
                    degraded, p_p=nominal_occupancy, p_q=proposal_occupancy)
            encounter_weights = np.exp(log_weights)
            diagnostics = diagnostics.merged(
                WeightDiagnostics.from_weights(encounter_weights))
            blocks.append(class_block)
            weights.append(encounter_weights[class_sources])
            hard_demands += n_hard
        block = RecordBlock.concat(blocks)
        order = block.canonical_order()
        record_weights = np.concatenate(weights)[order] if weights \
            else np.zeros(0)
        result = SimulationResult(
            policy_name=policy.name,
            hours=hours,
            context_hours={context: hours},
            records=RecordBlock(block.array[order], block.context_table),
            encounters_resolved=encounters_resolved,
            hard_braking_demands=hard_demands,
            hard_braking_threshold_ms2=config.hard_braking_threshold_ms2,
        )
        _record_sim_metrics(
            hours=hours, encounters=encounters_resolved,
            incidents=len(block),
            collisions=block.collision_count,
            hard_demands=hard_demands)
        return ImportanceRun(result=result, record_weights=record_weights,
                             diagnostics=diagnostics)
