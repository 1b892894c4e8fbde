"""Differential and closed-form oracles for the Poisson / Gamma CI arithmetic.

``repro.stats.poisson`` and ``repro.stats.bayes`` evaluate their bounds
with ``scipy.special`` (``gammaincinv``, ``gammainc``, ``pdtr``) so that
no production process pays the ``scipy.stats`` import.  Here
``scipy.stats`` is imported by the test only, as an independent
implementation: every bound must equal its ``scipy.stats.gamma`` /
``scipy.stats.poisson`` formulation *exactly* (``==``), and the
closed-form special cases must hold to floating-point accuracy.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats as sps

from repro.stats.bayes import GammaRatePrior
from repro.stats.poisson import (demonstration_power, exposure_to_demonstrate,
                                 max_acceptable_count,
                                 rate_confidence_interval, rate_lower_bound,
                                 rate_upper_bound)

counts = st.integers(min_value=0, max_value=10**6)
exposures = st.floats(min_value=1e-3, max_value=1e9)
confidences = st.floats(min_value=1e-6, max_value=1.0 - 1e-9)
rates = st.floats(min_value=1e-9, max_value=1e3)
alphas = st.floats(min_value=1e-3, max_value=1e6)
betas = st.floats(min_value=1e-6, max_value=1e9)


def oracle_cutoff(budget_rate: float, exposure: float,
                  confidence: float) -> int:
    """Largest n with ``gamma.ppf(c, n + 1) <= budget · T`` by full scan."""
    limit = budget_rate * exposure
    ns = np.arange(int(2 * limit) + 64)
    ucb = sps.gamma.ppf(confidence, ns + 1)
    assert ucb[-1] > limit, "scan range too short for the oracle"
    fits = np.flatnonzero(ucb <= limit)
    return int(fits[-1]) if fits.size else -1


class TestPoissonMatchesScipyStats:
    @settings(max_examples=200, deadline=None)
    @given(count=counts, exposure=exposures, confidence=confidences)
    def test_one_sided_bounds(self, count, exposure, confidence):
        assert rate_upper_bound(count, exposure, confidence) == \
            float(sps.gamma.ppf(confidence, count + 1)) / exposure
        lower = (0.0 if count == 0 else
                 float(sps.gamma.ppf(1.0 - confidence, count)) / exposure)
        assert rate_lower_bound(count, exposure, confidence) == lower

    @settings(max_examples=200, deadline=None)
    @given(count=counts, exposure=exposures, confidence=confidences)
    def test_two_sided_interval(self, count, exposure, confidence):
        alpha = 1.0 - confidence
        estimate = rate_confidence_interval(count, exposure, confidence)
        lower = (0.0 if count == 0 else
                 float(sps.gamma.ppf(alpha / 2.0, count)) / exposure)
        assert estimate.lower == lower
        assert estimate.upper == \
            float(sps.gamma.ppf(1.0 - alpha / 2.0, count + 1)) / exposure

    @settings(max_examples=200, deadline=None)
    @given(budget=rates, confidence=confidences,
           observed=st.integers(min_value=0, max_value=10**5))
    def test_exposure_to_demonstrate(self, budget, confidence, observed):
        assert exposure_to_demonstrate(budget, confidence, observed) == \
            float(sps.gamma.ppf(confidence, observed + 1)) / budget

    @settings(max_examples=120, deadline=None)
    @given(budget=st.floats(min_value=1e-4, max_value=1.0),
           exposure=st.floats(min_value=1.0, max_value=500.0),
           confidence=st.floats(min_value=0.5, max_value=0.9999))
    def test_max_acceptable_count(self, budget, exposure, confidence):
        assert max_acceptable_count(budget, exposure, confidence) == \
            oracle_cutoff(budget, exposure, confidence)

    @settings(max_examples=120, deadline=None)
    @given(true_rate=st.floats(min_value=0.0, max_value=1.0),
           budget=st.floats(min_value=1e-4, max_value=1.0),
           exposure=st.floats(min_value=1.0, max_value=500.0),
           confidence=st.floats(min_value=0.5, max_value=0.9999))
    def test_demonstration_power(self, true_rate, budget, exposure,
                                 confidence):
        cutoff = oracle_cutoff(budget, exposure, confidence)
        expected = (0.0 if cutoff < 0 else
                    float(sps.poisson.cdf(cutoff, true_rate * exposure)))
        assert demonstration_power(true_rate, budget, exposure,
                                   confidence) == expected


class TestGammaPriorMatchesScipyStats:
    @settings(max_examples=200, deadline=None)
    @given(alpha=alphas, beta=betas, confidence=confidences)
    def test_credible_bounds(self, alpha, beta, confidence):
        prior = GammaRatePrior(alpha, beta)
        scale = 1.0 / beta
        assert prior.credible_upper(confidence) == \
            float(sps.gamma.ppf(confidence, alpha, scale=scale))
        tail = (1.0 - confidence) / 2.0
        assert prior.credible_interval(confidence) == (
            float(sps.gamma.ppf(tail, alpha, scale=scale)),
            float(sps.gamma.ppf(1.0 - tail, alpha, scale=scale)))

    @settings(max_examples=200, deadline=None)
    @given(alpha=alphas, beta=betas, budget=rates)
    def test_probability_below(self, alpha, beta, budget):
        prior = GammaRatePrior(alpha, beta)
        assert prior.probability_below(budget) == \
            float(sps.gamma.cdf(budget, alpha, scale=1.0 / beta))

    def test_seeded_sweep_through_the_informative_region(self):
        # A last-ulp change in the argument (``x · β`` for ``x / (1/β)``)
        # moves the result in only a few percent of cases, mostly where
        # the cdf is neither ~0 nor ~1; sweep that region densely.
        rng = np.random.default_rng(2020)
        alpha = 10.0 ** rng.uniform(-1.0, 4.0, 3000)
        beta = 10.0 ** rng.uniform(-3.0, 8.0, 3000)
        budget = alpha / beta * 10.0 ** rng.uniform(-0.5, 0.5, 3000)
        confidence = rng.uniform(0.5, 0.999, 3000)
        cdf = sps.gamma.cdf(budget, alpha, scale=1.0 / beta)
        upper = sps.gamma.ppf(confidence, alpha, scale=1.0 / beta)
        for i in range(3000):
            prior = GammaRatePrior(float(alpha[i]), float(beta[i]))
            assert prior.probability_below(float(budget[i])) == cdf[i]
            assert prior.credible_upper(float(confidence[i])) == upper[i]


class TestClosedForms:
    # gammaincinv(1, c) is within 3.7e-15 relative of -log1p(-c) for every
    # c in [1e-12, 1) (measured over ~10^6 points); 1e-14 leaves margin
    # while still catching any formula error by many orders of magnitude.
    @settings(max_examples=300, deadline=None)
    @given(exposure=exposures, confidence=confidences)
    def test_zero_count_upper_bound(self, exposure, confidence):
        assert rate_upper_bound(0, exposure, confidence) == pytest.approx(
            -math.log1p(-confidence) / exposure, rel=1e-14, abs=0.0)

    @settings(max_examples=120, deadline=None)
    @given(true_rate=st.floats(min_value=1e-6, max_value=1.0),
           budget=st.floats(min_value=1e-4, max_value=1.0),
           exposure=st.floats(min_value=1.0, max_value=500.0),
           confidence=st.floats(min_value=0.5, max_value=0.9999))
    def test_power_is_summed_poisson_pmf(self, true_rate, budget, exposure,
                                         confidence):
        cutoff = max_acceptable_count(budget, exposure, confidence)
        assume(cutoff >= 0)
        mu = true_rate * exposure
        pmf_sum = math.fsum(
            math.exp(k * math.log(mu) - mu - math.lgamma(k + 1))
            for k in range(cutoff + 1))
        assert demonstration_power(true_rate, budget, exposure,
                                   confidence) == pytest.approx(
            pmf_sum, rel=1e-9, abs=1e-300)

    def test_power_of_a_perfect_system_is_one(self):
        assert demonstration_power(0.0, 1e-2, 1000.0) == 1.0
