import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailquant.bayes import PosteriorBelief, PriorBelief, conjugate_update, posterior
from tailquant.bootstrap import bootstrap_variance
from tailquant.errors import DomainError
from tailquant.estimators import min_sample_size, sample_quantile

means = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
variances = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


class TestValidation:
    @pytest.mark.parametrize("var", [0.0, -1.0, math.inf, math.nan])
    def test_prior_rejects_bad_variance(self, var):
        with pytest.raises(DomainError):
            PriorBelief(0.0, var)

    @pytest.mark.parametrize("var", [-0.5, -1e-300, math.inf, math.nan])
    def test_likelihood_rejects_bad_variance(self, var):
        with pytest.raises(DomainError, match="sample variance must be finite and >= 0"):
            posterior(PriorBelief(0.0, 1.0), 1.0, var)

    def test_likelihood_accepts_zero_variance(self):
        # the bootstrap variance of a sample whose weighted values are all tied
        assert posterior(PriorBelief(0.0, 1.0), 1.0, 0.0).prior_weight == 0.0

    def test_prior_rejects_non_finite_mean(self):
        with pytest.raises(DomainError):
            PriorBelief(math.inf, 1.0)

    def test_posterior_rejects_non_finite_estimate(self):
        with pytest.raises(DomainError):
            posterior(PriorBelief(0.0, 1.0), math.nan, 1.0)

    def test_posterior_belief_weight_range(self):
        with pytest.raises(DomainError):
            PosteriorBelief(mean=0.0, variance=1.0, prior_weight=1.5)
        with pytest.raises(DomainError):
            PosteriorBelief(mean=0.0, variance=1.0, prior_weight=-0.5)

    def test_extreme_variance_ratio_saturates_weight(self):
        # sigma^2 below sample variance by more than 1/eps: the weight rounds
        # to exactly 1.0 and the posterior collapses onto the prior
        belief = posterior(PriorBelief(0.0, 1e-20), 5.0, 1.0)
        assert belief.prior_weight == 1.0
        assert abs(belief.mean) < 1e-6


class TestPosterior:
    def test_equal_variances_midpoint(self):
        belief = posterior(PriorBelief(0.0, 1.0), 2.0, 1.0)
        assert belief.mean == pytest.approx(1.0, abs=1e-15)
        assert belief.variance == pytest.approx(0.5, abs=1e-15)
        assert belief.prior_weight == pytest.approx(0.5, abs=1e-15)

    def test_noisy_data_falls_back_to_prior(self):
        belief = posterior(PriorBelief(0.0, 1.0), 2.0, 1e12)
        assert abs(belief.mean - 0.0) < 1e-6

    def test_precise_data_overrides_prior(self):
        belief = posterior(PriorBelief(0.0, 1.0), 2.0, 1e-12)
        assert abs(belief.mean - 2.0) < 1e-6

    def test_hand_computed_example(self):
        belief = posterior(PriorBelief(0.0, 0.01), 1.0, 0.04)
        assert belief.mean == pytest.approx(0.2, rel=1e-12)
        assert belief.variance == pytest.approx(0.008, rel=1e-12)
        assert belief.prior_weight == pytest.approx(0.8, rel=1e-12)

    @given(mu=means, s2=variances, xhat=means, sn2=variances)
    @settings(max_examples=200)
    def test_variance_dominates(self, mu, s2, xhat, sn2):
        belief = posterior(PriorBelief(mu, s2), xhat, sn2)
        assert belief.variance < min(s2, sn2)

    @given(mu=means, s2=variances, xhat=means, sn2=variances)
    @settings(max_examples=200)
    def test_precision_additivity(self, mu, s2, xhat, sn2):
        belief = posterior(PriorBelief(mu, s2), xhat, sn2)
        lhs = 1.0 / belief.variance
        rhs = 1.0 / s2 + 1.0 / sn2
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(mu=means, s2=variances, xhat=means, sn2=variances)
    @settings(max_examples=200)
    def test_mean_is_convex_combination(self, mu, s2, xhat, sn2):
        belief = posterior(PriorBelief(mu, s2), xhat, sn2)
        assert 0.0 < belief.prior_weight < 1.0
        lo, hi = min(mu, xhat), max(mu, xhat)
        slack = 1e-12 * (abs(lo) + abs(hi) + 1.0)
        assert lo - slack <= belief.mean <= hi + slack
        # the update form mu + k (xhat - mu) is the same algebra, different arithmetic
        k = s2 / (s2 + sn2)
        assert belief.mean == pytest.approx(mu + k * (xhat - mu), rel=1e-9, abs=1e-9)

    @given(mu=means, s2=variances, xhat=means, sn2=variances)
    @settings(max_examples=100)
    def test_symmetry_of_roles(self, mu, s2, xhat, sn2):
        one = posterior(PriorBelief(mu, s2), xhat, sn2)
        other = posterior(PriorBelief(xhat, sn2), mu, s2)
        assert one.mean == pytest.approx(other.mean, rel=1e-12, abs=1e-12)
        assert one.variance == pytest.approx(other.variance, rel=1e-12)

    def test_zero_sample_variance_is_the_precise_limit(self):
        belief = posterior(PriorBelief(-1.0, 0.5), 3.0, 0.0)
        assert belief.mean == 3.0
        assert belief.variance == 0.0
        assert belief.prior_weight == 0.0

    def test_huge_variances_do_not_overflow(self):
        belief = posterior(PriorBelief(0.0, 1e300), 2.0, 1e300)
        assert belief.variance == pytest.approx(5e299, rel=1e-15)
        assert belief.prior_weight == 0.5

    def test_monotone_toward_prior_as_noise_grows(self):
        prior = PriorBelief(0.0, 1.0)
        xhat = 3.0
        distances = [
            abs(posterior(prior, xhat, sn2).mean - prior.mean)
            for sn2 in (0.01, 0.1, 1.0, 10.0, 100.0)
        ]
        assert all(b < a for a, b in zip(distances, distances[1:]))


def exact_update(mu, s2, xhat, sn2):
    """(mean, variance, prior weight) of the conjugate update in exact rational arithmetic."""
    mu, s2, xhat, sn2 = map(Fraction, (mu, s2, xhat, sn2))
    w = sn2 / (s2 + sn2)
    return w * mu + (1 - w) * xhat, s2 * w, w


# variances near the float maximum: most pairs sum past it, some do not; the
# float maximum plus half its ulp is a tie that rounds up and overflows, and
# plus the float below that half ulp it rounds down to the maximum
HALF_ULP = math.ulp(sys.float_info.max) / 2.0
NEAR_MAX = [sys.float_info.max, 1.7e308, 1.6e308, 1.2e308, 9e307, 4.6e307, 1e307,
            HALF_ULP, math.nextafter(HALF_ULP, 0.0)]


class TestVariancesPastTheFloatRange:
    @pytest.mark.parametrize("mu,xhat", [(0.0, 1.0), (-1e154, 0.0), (3.0, -1e300), (1e308, -1e308)])
    def test_matches_the_exact_update(self, mu, xhat):
        for s2, sn2 in itertools.product(NEAR_MAX, repeat=2):
            belief = posterior(PriorBelief(mu, s2), xhat, sn2)
            mean, variance, weight = exact_update(mu, s2, xhat, sn2)
            # a few roundings each: the weight's division and sum, then one
            # product for the variance and two products and a sum for the mean
            assert abs(belief.prior_weight - weight) <= 1e-15 * weight
            assert abs(belief.variance - variance) <= 1e-15 * variance
            assert abs(belief.mean - mean) <= 1e-15 * (abs(mu) + abs(xhat))

    def test_a_finite_sum_keeps_the_bits_of_the_plain_formula(self):
        for s2, sn2 in itertools.product(NEAR_MAX + [1.0, 1e-300], repeat=2):
            if math.isinf(s2 + sn2):
                continue
            w = sn2 / (s2 + sn2)
            # below the normal range the variance is sn2 * (1 - w) instead
            # (TestPriorWeightBelowTheNormalRange)
            variance = s2 * w if w >= sys.float_info.min else sn2 * (1.0 - w)
            belief = posterior(PriorBelief(2.0, s2), -5.0, sn2)
            assert (belief.mean, belief.variance, belief.prior_weight) == (w * 2.0 + (1.0 - w) * -5.0, variance, w)

    def test_arrays_have_the_bits_of_floats(self):
        # warnings are errors in this suite, so an overflow warning fails it;
        # at sn2 = 1.0 and 1e-300 the prior weight is below the normal range
        s2 = 1.6e308
        sn2 = np.array(NEAR_MAX + [1.0, 1e-300, 0.0])
        xhat = np.linspace(-1e300, 1e300, sn2.size)
        arrays = conjugate_update(0.5, s2, xhat, sn2)
        for i in range(sn2.size):
            belief = posterior(PriorBelief(0.5, s2), float(xhat[i]), float(sn2[i]))
            assert (belief.mean, belief.variance, belief.prior_weight) == tuple(float(a[i]) for a in arrays)

    def test_the_shown_case(self):
        belief = posterior(PriorBelief(0.0, 1.7e308), 1.0, 1.7e308)
        assert (belief.mean, belief.variance, belief.prior_weight) == (0.5, 8.5e307, 0.5)


# a sample variance tiny against the prior's: the prior weight sn2/(s2+sn2)
# is subnormal or 0, and s2 * w would inherit its lost bits
TINY_WEIGHT = [(1e300, 1e-300), (1e10, 1e-300), (1.7e308, 1.0), (1.0, 1e-310),
               (3.0, 5e-324), (1e308, 1e-10), (2.0, 4.4e-308)]


class TestPriorWeightBelowTheNormalRange:
    @pytest.mark.parametrize("s2,sn2", TINY_WEIGHT)
    def test_variance_is_correctly_rounded(self, s2, sn2):
        belief = posterior(PriorBelief(0.0, s2), 1.0, sn2)
        mean, variance, _ = exact_update(0.0, s2, 1.0, sn2)
        assert belief.prior_weight < sys.float_info.min
        # the exact variance is sn2 * (1 - w) with w < 2^-1022, so sn2 is its
        # nearest float
        assert belief.variance == float(variance) == sn2
        assert belief.mean == float(mean) == 1.0


# Discrete samples: a few distinct values, each repeated, so that every
# observation the bootstrap weighs can be tied with the sample quantile.
tied_samples = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(1, 150)), min_size=1, max_size=4
).map(lambda runs: np.sort(np.repeat([float(v) for v, _ in runs], [c for _, c in runs])))


class TestTiedData:
    @given(
        values=tied_samples,
        p=st.sampled_from([0.01, 0.05, 0.2, 0.5, 0.9]),
        mu=means,
        s2=variances,
    )
    @settings(max_examples=200, deadline=None)
    def test_posterior_is_defined_on_tied_samples(self, values, p, mu, s2):
        if values.size < min_sample_size(p):
            return
        estimate = sample_quantile(values, p)
        sn2 = bootstrap_variance(values, p)
        belief = posterior(PriorBelief(mu, s2), estimate, sn2)
        assert sn2 >= 0.0
        assert 0.0 <= belief.prior_weight <= 1.0
        assert 0.0 <= belief.variance <= s2
        if sn2 == 0.0:
            assert belief.prior_weight == 0.0
            assert belief.mean == estimate
            assert belief.variance == 0.0
        if np.all(values == values[0]):
            assert sn2 == 0.0
