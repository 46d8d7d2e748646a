import functools
import math
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.special import betainc, betaincc

import tailquant.special_functions as sf
from tailquant.bootstrap import (
    _MASS_FLOOR,
    _window_weights,
    bootstrap_variance,
    bootstrap_weights,
    tail_variance,
)
from tailquant.distributions import RngStream, rate_for_quantile
from tailquant.errors import DomainError, InsufficientSamples, NoConvergence
from tailquant.estimators import quantile_rank, sample_quantile


def quadrature_weights(n: int, r: int) -> np.ndarray:
    """Independent oracle: per-cell adaptive quadrature of the weight integral."""
    coeff = r * math.comb(n, r)

    def integrand(y):
        return y ** (r - 1) * (1.0 - y) ** (n - r)

    out = np.empty(n)
    for i in range(1, n + 1):
        value, _ = integrate.quad(integrand, (i - 1) / n, i / n, epsabs=1e-12, epsrel=1e-12)
        out[i - 1] = coeff * value
    return out


@functools.lru_cache(maxsize=None)
def dense_weights(n: int, r: int) -> np.ndarray:
    """Reference: all n+1 CDF values, differenced, increments below the floor zeroed."""
    a, b = float(r), float(n - r + 1)
    cdf = np.array([sf.regularized_incomplete_beta(i / n, a, b) for i in range(n + 1)])
    w = np.diff(cdf)
    w[w < _MASS_FLOOR] = 0.0
    return w


def window_grid() -> list[tuple[int, int]]:
    """(n, r) with r = 1, r = n and r = floor(n*p) over tail and central p."""
    cases = set()
    for n in (1, 2, 3, 7, 64, 1000, 9973, 30_000):
        cases.update({(n, 1), (n, n)})
        for p in (0.001, 0.01, 0.1, 0.5, 0.9):
            if math.floor(n * p) >= 1:
                cases.add((n, math.floor(n * p)))
    return sorted(cases)


class TestBootstrapWeights:
    def test_two_observations_rank_one(self):
        # by hand: 2 * int_0^{1/2} (1-y) dy = 3/4 and 2 * int_{1/2}^1 (1-y) dy = 1/4
        w = bootstrap_weights(2, 1).w
        assert w[0] == pytest.approx(0.75, abs=1e-12)
        assert w[1] == pytest.approx(0.25, abs=1e-12)

    def test_single_cell_covers_everything(self):
        assert bootstrap_weights(1, 1).w.tolist() == [1.0]

    @pytest.mark.parametrize("n,r", [(10, 1), (10, 5), (100, 10), (1000, 1), (1000, 999)])
    def test_normalization_and_sign(self, n, r):
        w = bootstrap_weights(n, r).w
        assert abs(float(w.sum()) - 1.0) <= 1e-10
        assert np.all(w >= 0.0)

    @pytest.mark.parametrize("n,r", [(5, 2), (9, 1), (9, 9), (12, 4)])
    def test_quadrature_oracle(self, n, r):
        ours = bootstrap_weights(n, r).w
        oracle = quadrature_weights(n, r)
        np.testing.assert_allclose(ours, oracle, atol=1e-9, rtol=0.0)

    @pytest.mark.parametrize("n,r", [(5, 0), (5, 6), (5, -1)])
    def test_rank_out_of_range(self, n, r):
        with pytest.raises(DomainError, match=rf"rank must lie in 1\.\.{n}, got {r}"):
            bootstrap_weights(n, r)

    def test_cache_is_transparent(self):
        first = bootstrap_weights(50, 5).w
        second = bootstrap_weights(50, 5).w
        assert first is second  # memoized
        with pytest.raises(ValueError):
            first[0] = 2.0  # cached array is read-only

    def test_no_convergence_propagates(self, monkeypatch):
        monkeypatch.setattr(sf, "CF_MAX_ITER", 1)
        _window_weights.cache_clear()
        with pytest.raises(NoConvergence):
            bootstrap_weights(53, 7)
        monkeypatch.undo()
        _window_weights.cache_clear()


class TestWeightWindow:
    @pytest.mark.parametrize("n,r", window_grid())
    def test_bit_identical_to_dense(self, n, r):
        weights = bootstrap_weights(n, r)
        dense = dense_weights(n, r)
        assert weights.lo < r <= weights.hi
        assert weights.w.tobytes() == dense.tobytes()
        assert weights.window.tobytes() == dense[weights.lo : weights.hi].tobytes()

    @pytest.mark.parametrize("n", [100, 1000, 9973, 30_000])
    @pytest.mark.parametrize("p", [0.01, 0.5, 0.9])
    def test_variance_matches_dense_dot(self, n, p):
        data = np.sort(np.random.default_rng(n).standard_normal(n))
        r = quantile_rank(n, p)
        expected = float(np.dot((data - data[r - 1]) ** 2, dense_weights(n, r)))
        value = bootstrap_variance(data, p)
        assert value == pytest.approx(expected, rel=1e-13)

    def test_window_is_narrow(self):
        # the Beta(r, n-r+1) mass sits within about r +/- c*sqrt(r) cells:
        # 162 CDF increments are computed here instead of 1e5
        weights = bootstrap_weights(100_000, 100)
        assert weights.window.size < 200
        assert np.count_nonzero(weights.w) == np.count_nonzero(weights.window)

    @pytest.mark.parametrize("n", [10**6, 10**7])
    @pytest.mark.parametrize("p", [0.01, 0.001])
    def test_large_n_matches_scipy(self, n, p):
        r = math.floor(n * p)
        a, b = r, n - r + 1
        weights = bootstrap_weights(n, r)
        reference = np.diff(betainc(a, b, np.arange(weights.lo, weights.hi + 1) / n))
        # ln B(a, b) is a difference of log-gammas of size ~ln Gamma(n+1), so
        # its rounding error is a few ulps of that; it scales the prefactor of
        # every CDF value and lands on the weight where the incomplete beta
        # switches to its complement branch
        atol = 4 * math.ulp(math.lgamma(n + 1.0))
        np.testing.assert_allclose(weights.window, reference, rtol=0.0, atol=atol)
        assert betainc(a, b, weights.lo / n) < _MASS_FLOOR
        # the walk reads 1 - I from a double near 1, which resolves it to eps
        assert betaincc(a, b, weights.hi / n) < _MASS_FLOOR + np.finfo(float).eps


class TestBootstrapVariance:
    def test_two_point_example(self):
        estimate = bootstrap_variance([0.0, 1.0], 0.5)
        assert estimate == pytest.approx(0.25, abs=1e-12)

    def test_constant_sample_is_zero(self):
        estimate = bootstrap_variance([3.0] * 25, 0.2)
        assert estimate == 0.0

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            bootstrap_variance(np.arange(10.0), 0.05)

    def test_non_negative_on_random_samples(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            data = np.sort(rng.normal(size=rng.integers(5, 200)))
            value = bootstrap_variance(data, 0.3)
            assert value >= 0.0

    def test_matches_direct_weighted_moment(self):
        rng = np.random.default_rng(3)
        data = np.sort(rng.standard_exponential(40))
        estimate = bootstrap_variance(data, 0.25)
        w = quadrature_weights(40, 10)
        expected = float(np.dot((data - data[9]) ** 2, w))
        assert estimate == pytest.approx(expected, rel=1e-9)

    def test_median_tracks_asymptotic_variance(self):
        # statistical check against the true-density variance at p=0.1, n=1e4
        p, n = 0.1, 10_000
        model = rate_for_quantile(0.0, p)
        density = model.pdf(0.0)
        target = p * (1.0 - p) / (n * density * density)
        values = []
        for trial in range(60):
            sample = model.sample(n, RngStream(2024, (trial,)))
            values.append(bootstrap_variance(sample, p))
        med = float(np.median(values))
        assert abs(med - target) / target < 0.25

    def test_overflow_in_zero_weight_cells_is_ignored(self):
        # n = 1000, r = 10: the window is cells 1..58 and cell 58 has weight 0,
        # so 1e200 from cell 58 on leaves the weighted moment finite
        n, p = 1000, 0.01
        weights = bootstrap_weights(n, quantile_rank(n, p))
        assert (weights.lo, weights.hi) == (0, 58) and weights.window[-1] == 0.0
        low = np.arange(1.0, 58.0)
        huge = np.concatenate([low, np.full(n - 57, 1e200)])
        moderate = np.concatenate([low, np.full(n - 57, 1e3)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = bootstrap_variance(huge, p)
        assert math.isfinite(value)
        assert value == bootstrap_variance(moderate, p)

    def test_overflow_in_weighted_cells_raises(self):
        data = [-1e200] + [1e200] * 99
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not finite"):
                bootstrap_variance(data, 0.01)

    @pytest.mark.parametrize("n,p", [(100, 0.01), (1000, 0.01), (9973, 0.001), (500, 0.3)])
    def test_any_order_gives_the_bits_of_sorted_input(self, n, p):
        data = np.random.default_rng(n).standard_normal(n)
        ordered = np.sort(data)
        r = quantile_rank(n, p)
        assert sample_quantile(data, p) == ordered[r - 1]
        assert sample_quantile(data, p) == sample_quantile(ordered, p)
        assert bootstrap_variance(data, p) == bootstrap_variance(ordered, p)
        assert bootstrap_variance(data, p) == tail_variance(ordered, bootstrap_weights(n, r))

    @pytest.mark.parametrize("n,p", [(100, 0.01), (1000, 0.01), (9973, 0.001), (500, 0.3)])
    def test_tail_prefix_gives_the_full_sample_variance(self, n, p):
        data = np.sort(np.random.default_rng(n).standard_normal(n))
        weights = bootstrap_weights(n, quantile_rank(n, p))
        full = bootstrap_variance(data, p)
        assert tail_variance(data[: weights.hi], weights) == full
