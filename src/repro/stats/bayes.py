"""Bayesian rate estimation: simulation-supported demonstration.

Sec. IV's programme — precise run-time information plus simulation-backed
arguments — needs a principled way to *combine* evidence sources: a
frequentist bound over field hours alone recreates the 3e8-hour burden
(E6) no matter how much simulation preceded it.  The conjugate
Gamma-Poisson machinery here does the combination:

* a :class:`GammaRatePrior` ``(α, β)`` is the state of knowledge about an
  incident rate — equivalent to having already observed ``α`` events over
  ``β`` exposure units;
* :func:`~GammaRatePrior.updated` folds in observed counts (field data)
  exactly;
* :func:`prior_from_simulation` turns a simulation campaign into a
  *discounted* prior (a power prior): simulation hours count, but at a
  declared exchange rate < 1, because the simulator is not the world —
  the discount is exactly the model-validity claim the safety case must
  then defend;
* :func:`field_exposure_to_demonstrate` answers the planning question:
  given this prior, how many *field* hours until the posterior puts the
  required probability below the budget?

All numbers remain auditable: a posterior is just (α, β), i.e. "events
seen over exposure credited".  Its quantiles and cdf come straight from
``scipy.special``: ``quantile(q) = gammaincinv(α, q) · (1/β)`` and
``P(λ ≤ x) = gammainc(α, x / (1/β))`` — bit-for-bit what
``scipy.stats.gamma`` with ``scale=1/β`` computes, without importing
``scipy.stats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from scipy.special import gammainc, gammaincinv

__all__ = ["GammaRatePrior", "JEFFREYS", "prior_from_simulation",
           "field_exposure_to_demonstrate"]


@dataclass(frozen=True)
class GammaRatePrior:
    """Gamma(α, β) belief over a Poisson rate (β in exposure units)."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if self.alpha <= 0 or not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if self.beta < 0 or not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")

    # -- belief queries -----------------------------------------------------

    def mean(self) -> float:
        if self.beta == 0:
            return math.inf
        return self.alpha / self.beta

    def credible_upper(self, confidence: float = 0.95) -> float:
        """Upper credible bound: P(λ ≤ bound) = confidence."""
        _check_confidence(confidence)
        if self.beta == 0:
            return math.inf
        return float(gammaincinv(self.alpha, confidence)
                     * (1.0 / self.beta))

    def credible_interval(self, confidence: float = 0.95,
                          ) -> Tuple[float, float]:
        """Equal-tailed credible interval."""
        _check_confidence(confidence)
        if self.beta == 0:
            return (0.0, math.inf)
        tail = (1.0 - confidence) / 2.0
        scale = 1.0 / self.beta
        return (float(gammaincinv(self.alpha, tail) * scale),
                float(gammaincinv(self.alpha, 1.0 - tail) * scale))

    def probability_below(self, budget_rate: float) -> float:
        """P(λ ≤ budget) under this belief — the demonstration statement."""
        if budget_rate <= 0:
            raise ValueError("budget rate must be positive")
        if self.beta == 0:
            return 0.0
        return float(gammainc(self.alpha, budget_rate / (1.0 / self.beta)))

    def demonstrates(self, budget_rate: float,
                     confidence: float = 0.95) -> bool:
        """Whether the belief already supports the budget claim."""
        return self.probability_below(budget_rate) >= confidence

    # -- updating -------------------------------------------------------------

    def updated(self, events: int, exposure: float) -> "GammaRatePrior":
        """Exact conjugate update with observed field data."""
        if events < 0:
            raise ValueError("events must be >= 0")
        if exposure < 0:
            raise ValueError("exposure must be >= 0")
        return GammaRatePrior(self.alpha + events, self.beta + exposure)


JEFFREYS = GammaRatePrior(alpha=0.5, beta=0.0)
"""The Jeffreys prior for a Poisson rate — the no-information start.

Updating it with (0 events, T) gives an upper credible bound close to the
frequentist exact bound, so the Bayesian machinery reduces gracefully to
E6's numbers when no simulation evidence is claimed.
"""


def _check_confidence(confidence: float) -> None:
    if not (0 < confidence < 1):
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")


def prior_from_simulation(sim_events: int, sim_exposure: float,
                          validity_discount: float,
                          *, base: Optional[GammaRatePrior] = None,
                          ) -> GammaRatePrior:
    """A power prior from a simulation campaign.

    ``validity_discount`` ∈ (0, 1] is the exchange rate between simulated
    and real exposure: 0.1 means ten simulated hours are credited as one
    real hour.  The discount is a *claim about the simulator* and belongs
    in the safety case next to the evidence it enables; 1.0 (simulation
    is the world) is allowed but should ring alarm bells in review.
    """
    if sim_events < 0:
        raise ValueError("sim_events must be >= 0")
    if sim_exposure <= 0:
        raise ValueError("sim_exposure must be positive")
    if not (0.0 < validity_discount <= 1.0):
        raise ValueError(
            f"validity discount must be in (0, 1], got {validity_discount}")
    start = base if base is not None else JEFFREYS
    return GammaRatePrior(
        start.alpha + sim_events * validity_discount,
        start.beta + sim_exposure * validity_discount,
    )


def field_exposure_to_demonstrate(prior: GammaRatePrior, budget_rate: float,
                                  confidence: float = 0.95,
                                  *, assumed_field_events: int = 0,
                                  ) -> float:
    """Clean field exposure needed until the posterior demonstrates.

    Returns 0 when the prior alone already demonstrates, and ``inf`` when
    no finite clean exposure can (possible when ``assumed_field_events``
    keeps pace with a very tight budget).  Solved by bisection on the
    monotone posterior probability.
    """
    if budget_rate <= 0:
        raise ValueError("budget rate must be positive")
    _check_confidence(confidence)
    if assumed_field_events < 0:
        raise ValueError("assumed_field_events must be >= 0")

    def demonstrated(exposure: float) -> bool:
        posterior = prior.updated(assumed_field_events, exposure)
        return posterior.probability_below(budget_rate) >= confidence

    if demonstrated(0.0):
        return 0.0
    low, high = 0.0, 1.0
    for _ in range(200):
        if demonstrated(high):
            break
        high *= 4.0
    else:
        return math.inf
    for _ in range(200):
        mid = (low + high) / 2.0
        if demonstrated(mid):
            high = mid
        else:
            low = mid
        if high - low <= max(1e-9, 1e-9 * high):
            break
    return high
