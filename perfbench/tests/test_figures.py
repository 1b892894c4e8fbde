"""Unit tests for the benchmark's order statistics and journal parser.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from figures import (TAIL_MIN_BEYOND, durations, journal_phases,  # noqa: E402
                     median, quartile_spread, tail, utc_seconds)


class TestMedian:
    def test_odd_and_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 3.0, 2.0]) == 2.5

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            median([])


class TestTail:
    def test_rule_leaves_at_least_ten_samples_beyond(self):
        values = [float(v) for v in range(1, 101)]  # 1..100
        figure = tail(values)
        assert figure["beyond"] == TAIL_MIN_BEYOND
        assert figure["value"] == 90.0
        assert figure["percentile"] == 90.0
        assert figure["n"] == 100
        assert sum(v > figure["value"] for v in values) == TAIL_MIN_BEYOND

    def test_highest_such_sample_is_chosen(self):
        # With 25 samples, rank 14 (0-based) has exactly 10 above it;
        # rank 15 would have only 9.
        values = [float(v) for v in range(25)]
        figure = tail(values)
        assert figure["value"] == 14.0
        assert figure["beyond"] == 10
        assert figure["percentile"] == pytest.approx(100 * 15 / 25)

    def test_order_of_input_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 0.0, 11.0,
                  10.0, 12.0]
        assert tail(values) == tail(sorted(values))

    def test_never_below_the_median(self):
        # 21 samples: the rule's sample (rank 10) is the median itself;
        # 22 samples: rank 11 lies above the median, so it is the tail.
        assert tail([float(v) for v in range(21)]) == {
            "value": 10.0, "percentile": 50.0, "beyond": 10, "n": 21}
        figure = tail([float(v) for v in range(22)])
        assert figure["value"] == 11.0 > median(range(22))
        assert figure["beyond"] == 10

    def test_too_few_samples_report_the_median(self):
        figure = tail([2.0, 1.0, 3.0, 10.0])
        assert figure == {"value": 2.5, "percentile": 50.0, "beyond": 2,
                          "n": 4}
        assert figure["beyond"] < TAIL_MIN_BEYOND

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            tail([])


class TestQuartileSpread:
    def test_matches_statistics_quantiles(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        assert quartile_spread(values) == pytest.approx(
            (q3 - q1) / statistics.median(values))

    def test_constant_values_have_no_spread(self):
        assert quartile_spread([2.0] * 10) == 0.0

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            quartile_spread([1.0])


def entry(kind, ts, job_id="j-a"):
    return {"kind": kind, "ts_utc": ts, "data": {"job_id": job_id}}


class TestJournalPhases:
    def test_one_job_lifecycle(self):
        phases = journal_phases([
            {"kind": "service.started", "ts_utc": "2026-01-01T00:00:00+00:00",
             "data": {"epoch": "e"}},
            entry("job.submitted", "2026-01-01T00:00:01.250000+00:00"),
            entry("job.leased", "2026-01-01T00:00:01.300000+00:00"),
            entry("job.completed", "2026-01-01T00:00:03.000000+00:00"),
        ])
        job = phases["j-a"]
        assert job["leased"] - job["submitted"] == pytest.approx(0.05)
        assert job["completed"] - job["leased"] == pytest.approx(1.7)
        assert durations(phases, "submitted", "completed") == [
            pytest.approx(1.75)]

    def test_requeue_keeps_first_lease_and_last_completion(self):
        phases = journal_phases([
            entry("job.submitted", "2026-01-01T00:00:00+00:00"),
            entry("job.leased", "2026-01-01T00:00:01+00:00"),
            entry("job.requeued", "2026-01-01T00:00:02+00:00"),
            entry("job.leased", "2026-01-01T00:00:03+00:00"),
            entry("job.completed", "2026-01-01T00:00:05+00:00"),
        ])
        assert durations(phases, "leased", "completed") == [4.0]

    def test_jobs_are_kept_apart_and_partial_jobs_skipped(self):
        phases = journal_phases([
            entry("job.submitted", "2026-01-01T00:00:00+00:00", "j-a"),
            entry("job.submitted", "2026-01-01T00:00:01+00:00", "j-b"),
            entry("job.leased", "2026-01-01T00:00:02+00:00", "j-b"),
        ])
        assert set(phases) == {"j-a", "j-b"}
        assert durations(phases, "submitted", "leased") == [1.0]

    def test_timestamps_honour_the_offset(self):
        assert utc_seconds("2026-01-01T01:00:00+01:00") == utc_seconds(
            "2026-01-01T00:00:00+00:00")
