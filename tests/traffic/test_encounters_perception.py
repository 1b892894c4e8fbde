"""Tests for encounter generation, perception, and fault models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.taxonomy import ActorClass
from repro.traffic.encounters import (ContextProfile, Encounter,
                                      EncounterBatch, EncounterGenerator,
                                      default_context_profiles)
from repro.traffic.faults import BrakingSystem
from repro.traffic.perception import (PerceptionModel, default_perception,
                                      degraded_perception)


class TestEncounter:
    def test_validation(self):
        with pytest.raises(ValueError, match="itself"):
            Encounter(ActorClass.EGO, "urban", 10.0, 0.0, False, 0.0)
        with pytest.raises(ValueError):
            Encounter(ActorClass.VRU, "urban", 0.0, 0.0, False, 0.0)
        with pytest.raises(ValueError):
            Encounter(ActorClass.VRU, "urban", 10.0, -1.0, False, 0.0)


class TestGenerator:
    def test_default_profiles_cover_contexts(self):
        generator = EncounterGenerator(default_context_profiles())
        assert set(generator.contexts) == {"urban", "suburban", "rural",
                                           "highway"}

    def test_unknown_context_raises(self):
        generator = EncounterGenerator(default_context_profiles())
        with pytest.raises(KeyError):
            generator.generate("moon", 10.0, 0.5, np.random.default_rng(0))

    def test_counts_scale_with_hours(self):
        generator = EncounterGenerator(default_context_profiles())
        rng = np.random.default_rng(1)
        short = generator.generate("urban", 10.0, 0.5, rng)
        long = generator.generate("urban", 1000.0, 0.5,
                                  np.random.default_rng(1))
        rate = generator.profile("urban").total_rate()
        assert len(long) == pytest.approx(rate * 1000.0, rel=0.1)
        assert len(long) > len(short)

    def test_times_sorted_and_within_horizon(self):
        generator = EncounterGenerator(default_context_profiles())
        encounters = generator.generate("urban", 50.0, 0.5,
                                        np.random.default_rng(2))
        times = [e.time_h for e in encounters]
        assert times == sorted(times)
        assert all(0 <= t <= 50.0 for t in times)

    def test_cue_fraction_tracks_probability(self):
        generator = EncounterGenerator(default_context_profiles())
        encounters = generator.generate("urban", 500.0, 0.8,
                                        np.random.default_rng(3))
        cued = sum(1 for e in encounters if e.cue_available)
        assert cued / len(encounters) == pytest.approx(0.8, abs=0.05)

    def test_highway_has_no_vrus(self):
        generator = EncounterGenerator(default_context_profiles())
        encounters = generator.generate("highway", 200.0, 0.5,
                                        np.random.default_rng(4))
        assert all(e.counterpart is not ActorClass.VRU for e in encounters)

    def test_deterministic_under_seed(self):
        generator = EncounterGenerator(default_context_profiles())
        a = generator.generate("urban", 20.0, 0.5, np.random.default_rng(5))
        b = generator.generate("urban", 20.0, 0.5, np.random.default_rng(5))
        assert len(a) == len(b)
        assert all(x.sight_distance_m == y.sight_distance_m
                   for x, y in zip(a, b))

    def test_profile_validation(self):
        with pytest.raises(ValueError, match="sight-distance"):
            ContextProfile("broken",
                           encounter_rates={ActorClass.VRU: 1.0},
                           sight_distance_m={},
                           counterpart_speed_kmh={ActorClass.VRU: (5.0, 2.0)})

    def test_invalid_hours(self):
        generator = EncounterGenerator(default_context_profiles())
        with pytest.raises(ValueError):
            generator.generate("urban", 0.0, 0.5, np.random.default_rng(0))

    def test_class_batch_is_validated_once(self, monkeypatch):
        """A batch with encounters builds (and validates) one
        EncounterBatch — no throwaway empty batch on the way."""
        calls = []
        original = EncounterBatch.__post_init__
        monkeypatch.setattr(EncounterBatch, "__post_init__",
                            lambda batch: calls.append(original(batch)))
        generator = EncounterGenerator(default_context_profiles())
        batch = generator.sample_class_batch(
            "urban", ActorClass.CAR, 50.0, 0.5, np.random.default_rng(6))
        assert len(batch) > 0
        assert len(calls) == 1

    def test_zero_rate_class_makes_no_draw(self):
        generator = EncounterGenerator({"quiet": ContextProfile(
            "quiet", encounter_rates={ActorClass.VRU: 0.0},
            sight_distance_m={ActorClass.VRU: (20.0, 5.0)},
            counterpart_speed_kmh={ActorClass.VRU: (5.0, 2.0)})})
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state
        batch = generator.sample_class_batch(
            "quiet", ActorClass.VRU, 100.0, 0.5, rng)
        assert len(batch) == 0
        assert batch.counterpart is ActorClass.VRU
        assert batch.context == "quiet"
        assert rng.bit_generator.state == before


class TestPerception:
    def test_detection_never_exceeds_sight(self, rng):
        model = default_perception()
        for _ in range(200):
            detected = model.detection_distance(50.0, "day", rng)
            assert 0 < detected <= 50.0

    def test_context_degradation(self):
        model = default_perception()
        day_rng = np.random.default_rng(0)
        night_rng = np.random.default_rng(0)
        day = np.mean([model.detection_distance(100.0, "day", day_rng)
                       for _ in range(500)])
        night = np.mean([model.detection_distance(100.0, "night", night_rng)
                         for _ in range(500)])
        assert night < day

    def test_miss_probability_creates_late_detections(self):
        model = PerceptionModel(miss_probability=0.5, late_fraction=0.2,
                                fraction_std=0.0)
        rng = np.random.default_rng(1)
        distances = [model.detection_distance(100.0, "day", rng)
                     for _ in range(400)]
        late = sum(1 for d in distances if d <= 25.0)
        assert late / len(distances) == pytest.approx(0.5, abs=0.1)

    def test_degraded_model_worse(self):
        good, bad = default_perception(), degraded_perception()
        assert bad.miss_probability > good.miss_probability
        assert bad.nominal_fraction < good.nominal_fraction

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PerceptionModel(nominal_fraction=0.0)
        with pytest.raises(ValueError):
            PerceptionModel(miss_probability=1.5)
        with pytest.raises(ValueError):
            PerceptionModel(context_factors={"night": 2.0})

    def test_invalid_sight_distance(self, rng):
        with pytest.raises(ValueError):
            default_perception().detection_distance(0.0, "day", rng)

    def test_array_halves_match_scalar_on_size_one(self):
        """Draw step + arithmetic step reproduce the scalar oracle
        bit-for-bit on a one-element, non-miss batch."""
        model = default_perception()
        for seed in range(20):
            missed, nominal = model.draw_detection_arrays(
                "night", 1, np.random.default_rng(seed))
            if missed[0]:
                continue
            vector = model.detection_distance_from_draws(
                np.array([40.0]), "night", missed, nominal)
            scalar = model.detection_distance(
                40.0, "night", np.random.default_rng(seed))
            assert vector.tolist() == [scalar]

    def test_array_arithmetic_rejects_bad_sight(self):
        model = default_perception()
        missed, nominal = model.draw_detection_arrays(
            "day", 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="sight distance"):
            model.detection_distance_from_draws(
                np.array([5.0, 0.0]), "day", missed, nominal)


class TestBrakingSystem:
    def test_occupancy_fraction(self):
        system = BrakingSystem(degradation_occupancy=0.3)
        rng = np.random.default_rng(2)
        degraded = sum(1 for _ in range(2000)
                       if system.sample_capability(rng) == system.degraded_ms2)
        assert degraded / 2000 == pytest.approx(0.3, abs=0.05)

    def test_reporting_honest(self):
        system = BrakingSystem(reports_capability=True)
        assert system.known_capability(4.0) == 4.0

    def test_reporting_suppressed(self):
        system = BrakingSystem(reports_capability=False)
        assert system.known_capability(4.0) == system.nominal_ms2

    def test_validation(self):
        with pytest.raises(ValueError):
            BrakingSystem(nominal_ms2=0.0)
        with pytest.raises(ValueError):
            BrakingSystem(degraded_ms2=10.0, nominal_ms2=8.0)
        with pytest.raises(ValueError):
            BrakingSystem(degradation_occupancy=1.5)
