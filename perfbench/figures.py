"""Order statistics and journal phases for the benchmark (stdlib only).

Kept free of any import from the program so the unit tests in
``perfbench/tests`` exercise them without loading numpy or scipy.
"""

from __future__ import annotations

import statistics
from datetime import datetime
from typing import Dict, Iterable, List, Mapping, Sequence

__all__ = ["TAIL_MIN_BEYOND", "median", "tail", "quartile_spread",
           "journal_phases", "durations", "utc_seconds"]

#: A tail percentile is reported only where at least this many samples
#: lie above it, so a single outlier never is the tail.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Dict[str, float]:
    """The highest percentile, not below the median, with at least
    :data:`TAIL_MIN_BEYOND` samples above it.

    Returns ``value``, its nearest-rank ``percentile``, the count
    ``beyond`` it and the sample count ``n``.  Below 21 samples no
    sample above the median has ten above it, so the median is
    returned, with ``percentile`` 50.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    mid = median(ordered)
    rank = n - 1 - TAIL_MIN_BEYOND
    if rank < 0 or ordered[rank] <= mid:
        return {"value": mid, "percentile": 50.0,
                "beyond": sum(v > mid for v in ordered), "n": n}
    return {"value": float(ordered[rank]),
            "percentile": 100.0 * (rank + 1) / n,
            "beyond": n - 1 - rank, "n": n}


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles``
    (``n=4``, the default exclusive method) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two samples")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def utc_seconds(ts_utc: str) -> float:
    """POSIX seconds of an ISO-8601 timestamp with an offset."""
    return datetime.fromisoformat(ts_utc).timestamp()


def journal_phases(entries: Iterable[Mapping[str, object]],
                   ) -> Dict[str, Dict[str, float]]:
    """Per-job lifecycle instants from service-journal entries.

    ``entries`` are journal entries as dicts (``kind``, ``ts_utc``,
    ``data``).  Returns ``{job_id: {"submitted": t, "leased": t,
    "completed": t}}`` in POSIX seconds, holding only the phases the
    journal shows.  A job leased more than once keeps its first lease
    and last completion, so a requeue shows as a longer run.
    """
    first = {"job.submitted": "submitted", "job.leased": "leased"}
    phases: Dict[str, Dict[str, float]] = {}
    for entry in entries:
        kind = str(entry["kind"])
        if kind not in first and kind != "job.completed":
            continue
        job = phases.setdefault(str(entry["data"]["job_id"]), {})
        when = utc_seconds(str(entry["ts_utc"]))
        if kind == "job.completed":
            job["completed"] = when
        else:
            job.setdefault(first[kind], when)
    return phases


def durations(phases: Mapping[str, Mapping[str, float]], start: str,
              end: str) -> List[float]:
    """``end - start`` for every job that has both phases."""
    return [job[end] - job[start] for job in phases.values()
            if start in job and end in job]
