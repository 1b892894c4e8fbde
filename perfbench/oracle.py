"""Expected outputs, computed in-process through the program's public API.

Imported only after a workload's timed window, so loading numpy and
scipy in the benchmark process never competes with the ops it times.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Optional

__all__ = ["load_program", "fleet_result", "campaign_summary",
           "job_result_mismatch", "job_id"]

#: The campaign op size, in simulated hours.
CAMPAIGN_HOURS = 100_000.0
#: How many program seeds the campaign ops cycle through.
CAMPAIGN_SEEDS = 2
#: The hours of a ``repro submit`` with CLI defaults.
SUBMIT_HOURS = 2000.0


def load_program(root: Path) -> None:
    """Make the checkout's ``src`` importable in this process."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def fleet_result(seed: int, hours: float):
    """One serial default-world campaign: what ``repro fleet --workers 1``
    and a default daemon job both run."""
    from repro.traffic import (DEFAULT_CHUNK_HOURS, DEFAULT_MIX,
                               BrakingSystem, EncounterGenerator,
                               default_context_profiles, default_perception,
                               policy_by_name, run_fleet)

    return run_fleet(policy_by_name("nominal"),
                     EncounterGenerator(default_context_profiles()),
                     default_perception(), BrakingSystem(),
                     dict(DEFAULT_MIX), hours, seed, workers=1,
                     chunk_hours=DEFAULT_CHUNK_HOURS, engine="vectorized")


def campaign_summary(seed: int, result=None) -> Dict[str, object]:
    """The summary ``repro fleet --json`` must write for ``seed``, as the
    JSON round trip reads it back."""
    from repro.core import figure5_incident_types
    from repro.traffic import type_counts

    if result is None:
        result = fleet_result(seed, CAMPAIGN_HOURS)
    counts, unclassified = type_counts(result,
                                       list(figure5_incident_types()))
    collisions = result.collision_count()
    summary = {
        "policy": result.policy_name,
        "hours": result.hours,
        "seed": seed,
        "engine": "vectorized",
        "context_hours": dict(result.context_hours),
        "encounters_resolved": result.encounters_resolved,
        "incidents": result.num_records,
        "collisions": collisions,
        "near_misses": result.num_records - collisions,
        "collision_rate_per_hour": result.collision_rate_per_hour(),
        "hard_braking_demands": result.hard_braking_demands,
        "hard_braking_rate_per_hour": result.hard_braking_rate_per_hour(),
        "type_counts": counts,
        "unclassified": unclassified,
    }
    return json.loads(json.dumps(summary))


def job_id(seed: int, hours: float) -> str:
    """The job id the daemon gives ``repro submit --seed S --hours H``."""
    from repro.service import CampaignSpec

    return CampaignSpec.from_dict({"policy": "nominal", "hours": hours,
                                   "seed": seed,
                                   "engine": "vectorized"}).job_id


def job_result_mismatch(envelope: Dict[str, object], seed: int,
                        hours: float) -> Optional[str]:
    """Why a fetched ``repro.job-result/v1`` envelope is wrong, or None."""
    from repro.io import ARTIFACTS

    fetched = ARTIFACTS.load_dict(envelope, "repro.job-result")
    expected_id = job_id(seed, hours)
    if fetched.job_id != expected_id:
        return f"job id {fetched.job_id} != {expected_id}"
    if fetched.result != fleet_result(seed, hours):
        return f"result of {expected_id} differs from in-process run_fleet"
    return None
