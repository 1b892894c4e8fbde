"""Vectorized structure-of-arrays encounter engine.

The per-core hot path behind fleet-scale QRN verification.  The scalar
simulator (:mod:`.simulator`) resolves encounters one Python object at a
time — transparent, and kept as the reference oracle — but the sample
sizes that quantitative acceptance criteria demand (cf. de Gelder &
Op den Camp; Putze et al.) need the per-core path to be array code.  This
engine draws every random quantity whole-array per (context ×
counterpart class) sub-stream, resolves the kinematics of all classes
of a context in one array pass, and only materialises
:class:`~repro.core.incident.IncidentRecord` objects for the rare
elements that actually become collisions, near-misses, or induced
incidents.

RNG sub-stream layout (the engine's determinism contract, also in
DESIGN §7):

* ``simulate(engine="vectorized")`` spawns **one child generator per
  active counterpart class** of the context, in the canonical order of
  :meth:`EncounterGenerator.active_classes` (sorted by class name).
* **Draws stay per class.**  On its own sub-stream, each class draws,
  whole-array and in this fixed order: Poisson count → arrival times →
  sight distances → counterpart speeds → cue uniforms (generation,
  :meth:`EncounterGenerator.sample_class_batch`); then capability
  uniforms → perception miss uniforms → perception fraction normals
  (resolution); then one follower uniform per hard-braking demand of
  that class and one distance + one speed uniform per induced incident.
* **Arithmetic runs per (chunk, context).**  :func:`resolve_batch`
  concatenates the per-class draws of a context and runs detection,
  approach speed, braking, impact and classification once over the
  whole context.  Every operation is elementwise IEEE arithmetic on
  per-context parameters, so fusing classes cannot change a bit; only
  the mask-sized follower and induced draws are split back per class.
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
from typing import List, Optional, Sequence, Tuple

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

__all__ = ["resolve_batch", "simulate_vectorized", "simulate_importance",
           "ImportanceRun", "CROSSING_CLASSES"]

CROSSING_CLASSES = frozenset({ActorClass.VRU, ActorClass.ANIMAL,
                              ActorClass.STATIC_OBJECT})
"""Classes that block the ego's path: the closing speed is the ego's own
speed.  Same-direction traffic closes at the speed difference."""


def resolve_batch(batches: Sequence[EncounterBatch],
                  streams: Sequence[np.random.Generator],
                  policy: TacticalPolicy,
                  perception: PerceptionModel, braking: BrakingSystem,
                  config: "SimulationConfig",
                  time_offset_h: float = 0.0,
                  ) -> Tuple[RecordBlock, np.ndarray, np.ndarray, int]:
    """Resolve the class batches of one context in a single array pass.

    ``streams[k]`` is the sub-stream of ``batches[k]``, already advanced
    past its generation draws; on it this function makes the class's
    resolution draws in the documented order (capabilities, perception,
    then follower and induced draws for that class's hard demands).  The
    arithmetic runs once over the concatenated encounters.

    Returns ``(block, sources, degraded, n_hard)``.  ``block`` holds the
    incidents, unsorted (the caller canonicalises), with rows grouped by
    class in batch order and, within a class, as collisions |
    near-misses | induced, each in encounter order — exactly the
    concatenation of resolving each batch alone.  ``sources`` maps each
    row to the index, within the concatenated encounters, of the
    encounter that produced it (induced incidents point at the encounter
    whose hard stop triggered them); ``degraded`` is the per-encounter
    braking fault-state mask; ``n_hard`` counts hard-braking demands.
    The importance sampler uses the provenance to attach records their
    encounters' likelihood-ratio weights and to reweight tilted fault
    occupancies exactly.
    """
    if len(batches) != len(streams):
        raise ValueError(f"{len(batches)} batches but {len(streams)} "
                         f"streams")
    contexts = {batch.context for batch in batches}
    if len(contexts) > 1:
        raise ValueError(f"batches span several contexts: "
                         f"{sorted(contexts)}")
    n = sum(len(batch) for batch in batches)
    session = active_session()
    if session is not None:
        session.metrics.counter("engine.batches").inc()
        session.metrics.histogram("engine.batch_size").observe(n)
    if n == 0:
        return (RecordBlock.empty(), np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=bool), 0)
    with maybe_span("resolve_batch"):
        return _resolve_fused(batches, streams, policy, perception,
                              braking, config, time_offset_h)


def _resolve_fused(batches: Sequence[EncounterBatch],
                   streams: Sequence[np.random.Generator],
                   policy: TacticalPolicy,
                   perception: PerceptionModel, braking: BrakingSystem,
                   config: "SimulationConfig", time_offset_h: float,
                   ) -> Tuple[RecordBlock, np.ndarray, np.ndarray, int]:
    context = batches[0].context
    live = [(batch, stream) for batch, stream in zip(batches, streams)
            if len(batch)]
    sizes = [len(batch) for batch, _ in live]

    # Resolution draws — whole-array, per class stream, fixed order.
    capability_parts, degraded_parts, missed_parts, nominal_parts = \
        [], [], [], []
    for (_, stream), size in zip(live, sizes):
        capability, degraded = braking.sample_capability_array_traced(
            stream, size)
        missed, nominal = perception.draw_detection_arrays(
            context, size, stream)
        capability_parts.append(capability)
        degraded_parts.append(degraded)
        missed_parts.append(missed)
        nominal_parts.append(nominal)

    def fused(parts: List[np.ndarray]) -> np.ndarray:
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    actual_capability = fused(capability_parts)
    degraded = fused(degraded_parts)
    sight = fused([batch.sight_distance_m for batch, _ in live])

    # Arithmetic — once over every class of the context.
    detection = perception.detection_distance_from_draws(
        sight, context, fused(missed_parts), fused(nominal_parts))
    known_capability = braking.known_capability_array(actual_capability)
    ego_speed = policy.encounter_speed_ms_array(
        context, fused([batch.cue_available for batch, _ in live]), sight,
        known_capability, braking.nominal_ms2)
    same_direction = np.maximum(
        ego_speed - kmh_to_ms(fused([batch.counterpart_speed_kmh
                                     for batch, _ in live])), 0.0)
    crossing = np.repeat([batch.counterpart in CROSSING_CLASSES
                          for batch, _ in live], sizes)
    closing = np.where(crossing, ego_speed, same_direction)
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

    coll_idx = np.flatnonzero(collided)
    miss_idx = np.flatnonzero(near_miss)
    impact_kmh = ms_to_kmh(outcome.impact_speed_ms)
    min_distances = np.maximum(outcome.stop_margin_m, 1e-3)

    # Fig. 4's lower half: a hard ego stop with a close follower induces
    # an incident between third parties.  On each class's own stream: one
    # uniform per hard demand of that class, then one distance and one
    # speed uniform per induced incident.
    hard_indices = np.flatnonzero(hard)
    n_hard = int(hard_indices.size)
    ends = np.cumsum(sizes)
    induced_parts, distance_parts, speed_parts = [], [], []
    if n_hard:
        per_class = np.split(hard_indices,
                             np.searchsorted(hard_indices, ends[:-1]))
        for (_, stream), class_hard in zip(live, per_class):
            if not class_hard.size:
                continue
            follower = stream.uniform(size=class_hard.size) \
                < config.follower_presence_probability
            class_induced = class_hard[follower]
            induced_parts.append(class_induced)
            distance_parts.append(
                stream.uniform(0.3, 4.0, size=class_induced.size))
            speed_parts.append(
                stream.uniform(10.0, 60.0, size=class_induced.size))

    # Columnar assembly, with no IncidentRecord objects constructed.
    # Rows are ordered by (class, segment, encounter) with segments
    # collisions | near-misses | induced: the layout of resolving each
    # class alone and concatenating.  The stable sort keeps the induced
    # rows in class order, which is the order of their draws.
    induced_indices = np.concatenate(induced_parts) if induced_parts \
        else np.zeros(0, dtype=np.int64)
    sources = np.concatenate([coll_idx, miss_idx, induced_indices])
    if not sources.size:
        return (RecordBlock.empty(), np.zeros(0, dtype=np.int64),
                degraded, n_hard)
    segment = np.repeat(np.arange(3), (coll_idx.size, miss_idx.size,
                                       induced_indices.size))
    source_class = np.searchsorted(ends, sources, side="right")
    order = np.argsort(source_class * 3 + segment, kind="stable")
    sources, segment, source_class = \
        sources[order], segment[order], source_class[order]
    is_collision = segment == 0
    is_near_miss = segment == 1
    induced = segment == 2

    class_codes = np.array([actor_code(batch.counterpart)
                            for batch, _ in live], dtype=np.uint8)
    counterpart = np.where(induced, actor_code(ActorClass.CAR),
                           class_codes[source_class])
    min_distance = np.where(is_near_miss, min_distances[sources], 0.0)
    approach = closing_kmh[sources]
    if induced_parts:
        min_distance[induced] = np.concatenate(distance_parts)
        approach[induced] = np.concatenate(speed_parts)
    block = RecordBlock.from_columns(
        counterpart=counterpart,
        is_collision=is_collision,
        delta_v_kmh=np.where(is_collision, impact_kmh[sources], 0.0),
        min_distance_m=min_distance,
        approach_speed_kmh=approach,
        time_h=fused([batch.time_h for batch, _ in live])[sources]
        + time_offset_h,
        context=np.zeros(sources.size, dtype=np.uint16),
        context_table=(context,),
        induced=induced)
    return block, sources.astype(np.int64), degraded, n_hard


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
    with maybe_span("simulate.vectorized"):
        batches = [generator.sample_class_batch(
            context, counterpart, hours, policy.cue_probability, stream)
            for counterpart, stream in zip(classes, streams)]
        encounters_resolved = sum(len(batch) for batch in batches)
        block, _, _, hard_demands = resolve_batch(
            batches, streams, policy, perception, braking, config,
            time_offset_h)
        block = block.canonical_sort()
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
    with maybe_span("simulate.importance"):
        batches = [proposal.sample_class_batch(
            context, counterpart, hours, policy.cue_probability, stream)
            for counterpart, stream in zip(classes, streams)]
        encounters_resolved = sum(len(batch) for batch in batches)
        log_weights = np.concatenate(
            [encounter_log_weights(batch, nominal_profile, tilt)
             for batch in batches]) if batches else np.zeros(0)
        block, sources, degraded, hard_demands = resolve_batch(
            batches, streams, policy, perception, proposal_braking, config,
            time_offset_h)
        if encounters_resolved:
            log_weights += bernoulli_log_ratio(
                degraded, p_p=nominal_occupancy, p_q=proposal_occupancy)
        encounter_weights = np.exp(log_weights)
        # Per-class slices merged in class order: one np.sum over the
        # whole array would round differently.
        diagnostics = WeightDiagnostics()
        start = 0
        for batch in batches:
            stop = start + len(batch)
            diagnostics = diagnostics.merged(
                WeightDiagnostics.from_weights(encounter_weights[start:stop]))
            start = stop
        order = block.canonical_order()
        record_weights = encounter_weights[sources][order]
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
