"""Fitting risk curves from observed collision outcomes.

The default risk model ships synthetic curves; a real programme fits them
from data — national statistics or (here) simulated outcomes.  This
module closes that loop: maximum-likelihood logistic regression of
exceedance outcomes on collision Δv, returning the same
:class:`~repro.injury.risk_curves.LogisticCurve` objects the rest of the
library consumes, so a fitted model is a drop-in replacement for the
synthetic one.

The fit is deliberately the textbook one (Bernoulli likelihood, two
parameters, L-BFGS on the negative log-likelihood) — auditability beats
sophistication in a safety-case input.  :func:`fit_exceedance_curve`
fits one severity level; :func:`fit_risk_model` fits a full ordered
family and enforces the stochastic-ordering constraint the
:class:`~repro.injury.risk_curves.InjuryRiskModel` constructor demands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.severity import UnifiedSeverity
from ..core.taxonomy import ActorClass
from .risk_curves import InjuryRiskModel, LogisticCurve

__all__ = ["FitResult", "fit_exceedance_curve", "fit_risk_model",
           "sample_outcomes"]

_INJURY_LEVELS = (UnifiedSeverity.LIGHT_INJURY, UnifiedSeverity.SEVERE_INJURY,
                  UnifiedSeverity.LIFE_THREATENING)


@dataclass(frozen=True)
class FitResult:
    """One fitted exceedance curve with its fit diagnostics."""

    curve: LogisticCurve
    log_likelihood: float
    n_observations: int
    n_exceedances: int

    def mean_log_likelihood(self) -> float:
        return self.log_likelihood / self.n_observations


def _negative_log_likelihood(params: np.ndarray, speeds: np.ndarray,
                             outcomes: np.ndarray) -> float:
    midpoint, log_scale = params
    scale = math.exp(log_scale)
    z = (speeds - midpoint) / scale
    # log(sigmoid(z)) and log(1 - sigmoid(z)), computed stably.
    log_p = -np.logaddexp(0.0, -z)
    log_q = -np.logaddexp(0.0, z)
    return -float(np.sum(outcomes * log_p + (1.0 - outcomes) * log_q))


def fit_exceedance_curve(speeds: Sequence[float],
                         exceeded: Sequence[bool],
                         *, initial_midpoint: Optional[float] = None,
                         ) -> FitResult:
    """MLE logistic fit of P(injury ≥ level | Δv).

    ``speeds`` are collision Δv values; ``exceeded`` whether the outcome
    reached the severity level.  Needs both outcome kinds present — a
    dataset with only exceedances (or none) cannot identify a curve, and
    silently extrapolating one would be a safety-case defect.
    """
    speed_arr = np.asarray(list(speeds), dtype=float)
    outcome_arr = np.asarray([1.0 if flag else 0.0 for flag in exceeded])
    if speed_arr.shape != outcome_arr.shape or speed_arr.ndim != 1:
        raise ValueError("speeds and exceeded must be equal-length 1-D")
    if len(speed_arr) < 10:
        raise ValueError(
            f"need at least 10 observations to fit, got {len(speed_arr)}")
    if np.any(speed_arr < 0):
        raise ValueError("speeds must be >= 0")
    positives = int(outcome_arr.sum())
    if positives == 0 or positives == len(outcome_arr):
        raise ValueError(
            "cannot identify a curve from single-class outcomes "
            f"({positives}/{len(outcome_arr)} exceedances)")
    start_mid = (initial_midpoint if initial_midpoint is not None
                 else float(np.median(speed_arr)))
    start = np.array([start_mid, math.log(max(np.std(speed_arr), 1.0))])
    # Imported on use: only processes that fit a curve pay for it.
    from scipy.optimize import minimize

    result = minimize(_negative_log_likelihood, start,
                      args=(speed_arr, outcome_arr), method="L-BFGS-B")
    if not result.success:  # pragma: no cover - optimizer rarely fails here
        raise RuntimeError(f"curve fit failed: {result.message}")
    midpoint, log_scale = result.x
    return FitResult(
        curve=LogisticCurve(float(midpoint), float(math.exp(log_scale))),
        log_likelihood=-float(result.fun),
        n_observations=len(speed_arr),
        n_exceedances=positives,
    )


def fit_risk_model(observations: Mapping[ActorClass,
                                         Sequence[Tuple[float, UnifiedSeverity]]],
                   ) -> InjuryRiskModel:
    """Fit a full risk model from (Δv, realised severity) observations.

    For each counterpart and each injury level, the exceedance indicator
    is "realised severity ≥ level"; three curves are fitted per
    counterpart.  The model constructor then re-validates stochastic
    ordering — a dataset too thin or too noisy to produce ordered curves
    fails loudly rather than yielding an incoherent model.
    """
    if not observations:
        raise ValueError("need observations for at least one counterpart")
    curves: Dict[ActorClass, Dict[UnifiedSeverity, LogisticCurve]] = {}
    for counterpart, rows in observations.items():
        if not rows:
            raise ValueError(f"no observations for {counterpart}")
        speeds = [dv for dv, _ in rows]
        severities = [severity for _, severity in rows]
        family: Dict[UnifiedSeverity, LogisticCurve] = {}
        for level in _INJURY_LEVELS:
            exceeded = [severity >= level for severity in severities]
            family[level] = fit_exceedance_curve(speeds, exceeded).curve
        curves[counterpart] = family
    return InjuryRiskModel(curves)


def sample_outcomes(model: InjuryRiskModel, counterpart: ActorClass,
                    speeds: Sequence[float], rng: np.random.Generator,
                    ) -> List[Tuple[float, UnifiedSeverity]]:
    """Draw realised severities at given Δv values — synthetic 'accident
    statistics' for calibration round-trip tests and demos."""
    rows: List[Tuple[float, UnifiedSeverity]] = []
    for dv in speeds:
        distribution = model.severity_probabilities(counterpart, float(dv))
        levels = list(distribution)
        weights = np.array([distribution[level] for level in levels])
        weights = weights / weights.sum()
        chosen = levels[int(rng.choice(len(levels), p=weights))]
        rows.append((float(dv), chosen))
    return rows
