"""The columnar record path: blocks, transport, spill, classification.

The contract under test (DESIGN §12): ``RecordBlock`` is a lossless,
canonically-ordered columnar encoding of ``IncidentRecord`` lists —
every view (materialised records, shm round-trip, disk spill, block
merge, columnar classification) must agree bit-for-bit with the
record-object reference path.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.incident import (ActorClass, ContributionSplit,
                                 IncidentRecord, IncidentType,
                                 ProximityMargin, SpeedBand,
                                 classify_records)
from repro.traffic import (BrakingSystem, EncounterGenerator, RecordBlock,
                           RecordSink, SimulationResult,
                           classify_block_counts, default_context_profiles,
                           aggressive_policy, default_perception,
                           load_record_blocks, nominal_policy, run_fleet,
                           type_counts)
from repro.traffic.records import (ACTOR_TABLE, RECORD_DTYPE,
                                   iter_record_blocks, receive_block,
                                   ship_block, shm_available)


def _record_sort_key(record):
    """The canonical record order, spelled out on objects.

    An oracle independent of :meth:`RecordBlock.canonical_order`: it
    compares field values and counterpart *names* where the block
    compares codes.
    """
    return (record.time_h, record.context, record.counterpart.name,
            record.is_collision, record.induced, record.delta_v_kmh,
            record.min_distance_m, record.approach_speed_kmh)


def _sample_records():
    """A hand-built mix covering every field, with equal-time ties."""
    return [
        IncidentRecord(ActorClass.VRU, False, min_distance_m=0.8,
                       approach_speed_kmh=31.0, time_h=4.0,
                       context="urban"),
        IncidentRecord(ActorClass.CAR, True, delta_v_kmh=22.5,
                       time_h=4.0, context="highway"),
        IncidentRecord(ActorClass.CAR, False, min_distance_m=1.4,
                       approach_speed_kmh=55.0, time_h=4.0,
                       context="highway", induced=True),
        IncidentRecord(ActorClass.TRUCK, True, delta_v_kmh=9.25,
                       time_h=0.125, context="rural"),
        IncidentRecord(ActorClass.VRU, False, min_distance_m=0.8,
                       approach_speed_kmh=31.0, time_h=4.0,
                       context="suburban"),
    ]


class TestDtypeTotality:
    """Satellite: the dtype must cover the dataclass, by reflection."""

    def test_every_dataclass_field_has_a_column(self):
        field_names = [field.name for field in
                       dataclasses.fields(IncidentRecord)]
        assert list(RECORD_DTYPE.names) == field_names, \
            "RECORD_DTYPE must cover every IncidentRecord field, in " \
            "dataclass order — a new record field needs a new column " \
            "(and a schema bump for the spill format)"

    def test_roundtrip_preserves_every_field_value(self):
        records = _sample_records()
        restored = RecordBlock.from_records(records).to_records()
        for original, back in zip(records, restored):
            for field in dataclasses.fields(IncidentRecord):
                assert getattr(back, field.name) == \
                    getattr(original, field.name), field.name

    def test_actor_table_covers_every_actor_class(self):
        assert set(ACTOR_TABLE) == set(ActorClass)
        assert list(ACTOR_TABLE) == sorted(ActorClass,
                                           key=lambda cls: cls.name)


class TestRecordBlock:
    def test_from_records_roundtrip_exact(self):
        records = _sample_records()
        block = RecordBlock.from_records(records)
        assert len(block) == len(records)
        assert block.to_records() == records

    def test_empty_block(self):
        block = RecordBlock.empty()
        assert len(block) == 0
        assert block.to_records() == []
        assert block.context_table == ()
        assert block.collision_count == 0

    def test_collision_count(self):
        block = RecordBlock.from_records(_sample_records())
        assert block.collision_count == 2

    def test_equality_is_content_equality(self):
        records = _sample_records()
        assert RecordBlock.from_records(records) == \
            RecordBlock.from_records(list(records))
        assert RecordBlock.from_records(records) != \
            RecordBlock.from_records(records[:-1])

    def test_construction_canonicalises_context_table(self):
        # An unsorted, over-wide table is pruned and sorted on entry,
        # so logically equal content is array-equal content.
        records = _sample_records()
        reference = RecordBlock.from_records(records)
        table = ("urban", "rural", "unused", "highway", "suburban")
        codes = {context: code for code, context in enumerate(table)}
        scrambled = RecordBlock.from_columns(
            counterpart=reference.array["counterpart"],
            is_collision=reference.array["is_collision"],
            delta_v_kmh=reference.array["delta_v_kmh"],
            min_distance_m=reference.array["min_distance_m"],
            approach_speed_kmh=reference.array["approach_speed_kmh"],
            time_h=reference.array["time_h"],
            context=np.array([codes[r.context] for r in records],
                             dtype=np.uint16),
            context_table=table,
            induced=reference.array["induced"])
        assert "unused" not in scrambled.context_table
        assert scrambled == reference

    def test_duplicate_context_table_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            RecordBlock(np.empty(1, dtype=RECORD_DTYPE), ("a", "a"))

    def test_out_of_range_context_code_rejected(self):
        array = np.zeros(1, dtype=RECORD_DTYPE)
        array["context"] = 5
        array["min_distance_m"] = 1.0
        with pytest.raises(ValueError, match="outside table"):
            RecordBlock(array, ("only",))

    def test_wrong_dtype_rejected(self):
        with pytest.raises(ValueError, match="RECORD_DTYPE"):
            RecordBlock(np.zeros(3), ())

    def test_canonical_sort_matches_record_sort_key(self):
        records = _sample_records()
        block = RecordBlock.from_records(records).canonical_sort()
        assert block.to_records() == sorted(records, key=_record_sort_key)

    def test_concat_equals_whole(self):
        records = _sample_records()
        whole = RecordBlock.from_records(records)
        halves = [RecordBlock.from_records(records[:2]),
                  RecordBlock.from_records(records[2:])]
        assert RecordBlock.concat(halves) == whole

    def test_concat_remaps_disjoint_context_tables(self):
        a = RecordBlock.from_records([
            IncidentRecord(ActorClass.CAR, True, delta_v_kmh=5.0,
                           time_h=1.0, context="zulu")])
        b = RecordBlock.from_records([
            IncidentRecord(ActorClass.CAR, True, delta_v_kmh=5.0,
                           time_h=2.0, context="alpha")])
        merged = RecordBlock.concat([a, b])
        assert merged.context_table == ("alpha", "zulu")
        assert [r.context for r in merged.to_records()] == ["zulu", "alpha"]

    def test_concat_of_nothing_is_empty(self):
        assert RecordBlock.concat([]) == RecordBlock.empty()
        assert RecordBlock.concat([RecordBlock.empty()]) == \
            RecordBlock.empty()

    def test_check_invariants_catches_poisoned_rows(self):
        block = RecordBlock.from_records(_sample_records())
        block.array["delta_v_kmh"][1] = math.nan
        with pytest.raises(ValueError, match="finite"):
            block.check_invariants()


@pytest.mark.skipif(not shm_available(), reason="no shared_memory here")
class TestShmTransport:
    def test_ship_receive_roundtrip(self):
        block = RecordBlock.from_records(_sample_records())
        shipped = ship_block(block)
        assert shipped.length == len(block)
        assert shipped.nbytes == block.nbytes
        assert receive_block(shipped) == block

    def test_receive_unlinks_the_segment(self):
        from multiprocessing import shared_memory

        shipped = ship_block(RecordBlock.from_records(_sample_records()))
        receive_block(shipped)
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=shipped.shm_name)

    def test_empty_block_ships(self):
        shipped = ship_block(RecordBlock.empty())
        assert receive_block(shipped) == RecordBlock.empty()


class TestRecordSink:
    def test_keyed_append_spills_immediately(self, tmp_path):
        block = RecordBlock.from_records(_sample_records())
        with RecordSink(tmp_path) as sink:
            sink.append(block, key=3)
            assert [p.name for p in sink.parts] == \
                ["records-chunk-000003.json"]
        assert load_record_blocks(tmp_path) == block.canonical_sort()

    def test_unkeyed_appends_buffer_until_threshold(self, tmp_path):
        records = _sample_records()
        with RecordSink(tmp_path, max_resident_records=6) as sink:
            sink.append(RecordBlock.from_records(records))
            assert sink.parts == ()  # still resident
            sink.append(RecordBlock.from_records(records))
            assert len(sink.parts) == 1  # crossed 6 -> flushed
        assert sink.total_records == 2 * len(records)
        loaded = load_record_blocks(tmp_path)
        assert loaded == RecordBlock.from_records(
            records + records).canonical_sort()

    def test_summary_reports_totals(self, tmp_path):
        block = RecordBlock.from_records(_sample_records())
        with RecordSink(tmp_path) as sink:
            sink.append(block, key=0)
        summary = sink.summary()
        assert summary["records"] == len(block)
        assert summary["collisions"] == block.collision_count
        assert summary["parts"] == 1
        assert summary["bytes_written"] > 0

    def test_iter_record_blocks_in_filename_order(self, tmp_path):
        first = RecordBlock.from_records(_sample_records()[:2])
        second = RecordBlock.from_records(_sample_records()[2:])
        with RecordSink(tmp_path) as sink:
            sink.append(second, key=7)  # written first, sorts second
            sink.append(first, key=2)
        assert list(iter_record_blocks(tmp_path)) == [first, second]

    def test_bad_key_and_type_rejected(self, tmp_path):
        with RecordSink(tmp_path) as sink:
            with pytest.raises(ValueError, match=">= 0"):
                sink.append(RecordBlock.empty(), key=-1)
            with pytest.raises(TypeError, match="RecordBlock"):
                sink.append([], key=0)


class TestColumnarClassification:
    @pytest.fixture(scope="class")
    def campaign(self):
        world = EncounterGenerator(default_context_profiles())
        return run_fleet(nominal_policy(), world, default_perception(),
                         BrakingSystem(), {"urban": 0.6, "rural": 0.4},
                         400.0, 11, workers=1, chunk_hours=100.0)

    def test_counts_match_record_reference(self, campaign):
        from repro.core import figure5_incident_types

        types = list(figure5_incident_types())
        block_counts, block_unclassified = classify_block_counts(
            campaign.record_block, types)
        buckets = classify_records(campaign.records, types)
        assert block_unclassified == len(buckets.pop("<unclassified>"))
        assert block_counts == {type_id: len(records)
                                for type_id, records in buckets.items()}

    def test_type_counts_uses_block_path(self, campaign):
        from repro.core import figure5_incident_types

        types = list(figure5_incident_types())
        assert isinstance(campaign.record_block, RecordBlock)
        assert type_counts(campaign, types) == \
            classify_block_counts(campaign.record_block, types)

    def test_multi_match_raises_the_classify_records_error(self):
        overlapping = [
            IncidentType("A", ActorClass.EGO, ActorClass.VRU,
                         margin=SpeedBand(0, 12),
                         split=ContributionSplit({"vS1": 1.0})),
            IncidentType("B", ActorClass.EGO, ActorClass.VRU,
                         margin=SpeedBand(10, 70),
                         split=ContributionSplit({"vS2": 1.0})),
        ]
        record = IncidentRecord(ActorClass.VRU, True, delta_v_kmh=11.0)
        block = RecordBlock.from_records([record])
        with pytest.raises(ValueError) as columnar:
            classify_block_counts(block, overlapping)
        with pytest.raises(ValueError) as reference:
            classify_records([record], overlapping)
        assert str(columnar.value) == str(reference.value)

    def test_proximity_margin_mask_matches_reference(self):
        types = [IncidentType("near-vru", ActorClass.EGO, ActorClass.VRU,
                              margin=ProximityMargin(2.0, 20.0),
                              split=ContributionSplit({"vS1": 1.0}))]
        records = _sample_records()
        block = RecordBlock.from_records(records)
        counts, unclassified = classify_block_counts(block, types)
        buckets = classify_records(records, types)
        assert counts == {"near-vru": len(buckets["near-vru"])}
        assert unclassified == len(buckets["<unclassified>"])


def _chunk_results():
    """Chunk results with equal-timestamp ties *across* chunks."""
    tie_a = IncidentRecord(ActorClass.VRU, False, min_distance_m=0.9,
                           approach_speed_kmh=30.0, time_h=2.0,
                           context="urban")
    tie_b = IncidentRecord(ActorClass.CAR, True, delta_v_kmh=15.0,
                           time_h=2.0, context="urban")
    tie_c = IncidentRecord(ActorClass.CAR, True, delta_v_kmh=15.0,
                           time_h=2.0, context="rural")
    chunks = []
    for index, records in enumerate([[tie_a, tie_b], [tie_c],
                                     [tie_b, tie_a], []]):
        chunks.append(SimulationResult(
            policy_name="nominal", hours=1.0,
            context_hours={"urban": 0.6, "rural": 0.4},
            encounters_resolved=10 + index, records=list(records),
            hard_braking_demands=index, hard_braking_threshold_ms2=6.0))
    return chunks


class TestMergePermutationInvariance:
    """Satellite: merge_many is chunk-order invariant, ties included."""

    @given(permutation=st.permutations(range(4)))
    @settings(max_examples=24, deadline=None)
    def test_merge_many_invariant_under_chunk_permutation(self,
                                                          permutation):
        chunks = _chunk_results()
        reference = SimulationResult.merge_many(chunks)
        shuffled = SimulationResult.merge_many(
            [chunks[index] for index in permutation])
        assert shuffled == reference
        assert shuffled.records == reference.records

    @given(permutation=st.permutations(range(4)))
    @settings(max_examples=24, deadline=None)
    def test_block_backed_merge_is_also_invariant(self, permutation):
        chunks = [result.replaced(records=result.record_block)
                  for result in _chunk_results()]
        reference = SimulationResult.merge_many(chunks)
        shuffled = SimulationResult.merge_many(
            [chunks[index] for index in permutation])
        assert shuffled == reference
        # Block-built and list-built chunks are the same results.
        assert shuffled == SimulationResult.merge_many(_chunk_results())


_positive = st.floats(min_value=1e-3, max_value=500.0)
_non_negative = st.floats(min_value=0.0, max_value=500.0)


@st.composite
def incident_records(draw):
    """Any valid IncidentRecord (collisions need a positive delta_v,
    near-misses a positive distance)."""
    is_collision = draw(st.booleans())
    return IncidentRecord(
        counterpart=draw(st.sampled_from(list(ActorClass))),
        is_collision=is_collision,
        delta_v_kmh=draw(_positive if is_collision else _non_negative),
        min_distance_m=draw(_non_negative if is_collision else _positive),
        approach_speed_kmh=draw(_non_negative),
        time_h=draw(st.floats(min_value=0.0, max_value=1e6)),
        context=draw(st.text(alphabet="abu", max_size=3)),
        induced=draw(st.booleans()))


class TestSingleStorageForm:
    """A result stores one RecordBlock; ``records`` is its decoded view."""

    @given(records=st.lists(incident_records(), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_list_input_round_trips_in_order(self, records):
        result = SimulationResult(
            policy_name="nominal", hours=1.0, context_hours={"a": 1.0},
            records=records, encounters_resolved=len(records),
            hard_braking_demands=0, hard_braking_threshold_ms2=4.0)
        assert result.records == records
        assert result.num_records == len(records)
        assert result.collision_count() == \
            sum(1 for r in records if r.is_collision)

    @pytest.fixture(scope="class")
    def scalar_chunks(self):
        from repro.traffic import simulate_mix

        world = EncounterGenerator(default_context_profiles())
        rng = np.random.default_rng(5)
        return [simulate_mix(nominal_policy(), world, default_perception(),
                             BrakingSystem(), {"urban": 0.7, "rural": 0.3},
                             4.0, rng, time_offset_h=4.0 * index,
                             engine="scalar")
                for index in range(5)]

    @given(permutation=st.permutations(range(5)))
    @settings(max_examples=20, deadline=None)
    def test_merge_of_scalar_chunks_is_the_oracle_sort(self, scalar_chunks,
                                                       permutation):
        pooled = [record for chunk in scalar_chunks
                  for record in chunk.records]
        assert pooled, "the chunks should produce some incidents"
        merged = SimulationResult.merge_many(
            [scalar_chunks[index] for index in permutation])
        assert merged.records == sorted(pooled, key=_record_sort_key)

    def test_importance_weights_follow_their_records(self):
        """The sampler's weights equal an oracle-key sort of the
        unsorted (record, weight) pairs, rebuilt here from the engine's
        public per-batch pieces."""
        from repro.stats.importance import bernoulli_log_ratio
        from repro.traffic import ProposalTilt, simulate_importance
        from repro.traffic.encounters import encounter_log_weights
        from repro.traffic.engine import resolve_batch
        from repro.traffic.simulator import SimulationConfig

        world = EncounterGenerator(default_context_profiles())
        policy, perception = aggressive_policy(), default_perception()
        braking = BrakingSystem(degradation_occupancy=0.01)
        tilt = ProposalTilt(rate_scale=2.0, sight_scale=0.6,
                            speed_shift_kmh=5.0, degradation_scale=20.0)
        run = simulate_importance(policy, world, perception, braking,
                                  "urban", 20.0, np.random.default_rng(9),
                                  None, tilt=tilt)

        proposal = world.tilted(tilt)
        nominal_occupancy = braking.degradation_occupancy
        proposal_occupancy = nominal_occupancy * tilt.degradation_scale
        proposal_braking = braking.with_occupancy(proposal_occupancy)
        classes = proposal.active_classes("urban")
        streams = np.random.default_rng(9).spawn(len(classes))
        pairs = []
        for counterpart, stream in zip(classes, streams):
            batch = proposal.sample_class_batch(
                "urban", counterpart, 20.0, policy.cue_probability, stream)
            log_weights = encounter_log_weights(
                batch, world.profile("urban"), tilt)
            block, sources, degraded, _ = resolve_batch(
                [batch], [stream], policy, perception, proposal_braking,
                SimulationConfig())
            if len(batch):
                log_weights += bernoulli_log_ratio(
                    degraded, p_p=nominal_occupancy, p_q=proposal_occupancy)
            weights = np.exp(log_weights)
            pairs.extend(zip(block.to_records(),
                             (float(weights[i]) for i in sources)))
        unsorted = list(pairs)
        pairs.sort(key=lambda pair: _record_sort_key(pair[0]))

        assert pairs != unsorted, "the canonical sort should reorder rows"
        assert len(set(w for _, w in pairs)) > 1, "the tilt should bite"
        assert run.result.records == [record for record, _ in pairs]
        assert run.record_weights.tolist() == [w for _, w in pairs]
