import math

import numpy as np
import pytest
from scipy import integrate, stats

from tailquant.bayes import PriorBelief
from tailquant.bootstrap import bootstrap_weights
from tailquant.distributions import (
    LogExponential,
    RngStream,
    _lattice,
    asymptotic_variance,
    rate_for_quantile,
)
from tailquant.errors import DomainError
from tailquant.estimators import quantile_rank
from tailquant.experiment import ExperimentConfig, _cell_draws


class TestRngStream:
    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "7"])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(DomainError):
            RngStream(seed)

    def test_child_appends_path(self):
        stream = RngStream(3).child(1, 2).child(5)
        assert stream.path == (1, 2, 5)
        assert stream.seed == 3

    def test_same_stream_same_sequence(self):
        a = RngStream(42, (7, 1)).generator().integers(0, 2**53, 16)
        b = RngStream(42, (7, 1)).generator().integers(0, 2**53, 16)
        assert np.array_equal(a, b)

    def test_sibling_streams_differ(self):
        root = RngStream(42)
        a = root.child(0).generator().integers(0, 2**53, 16)
        b = root.child(1).generator().integers(0, 2**53, 16)
        assert not np.array_equal(a, b)


class TestRateForQuantile:
    def test_unit_rate(self):
        p = 1.0 - math.exp(-1.0)
        assert rate_for_quantile(0.0, p).rate == pytest.approx(1.0, rel=1e-14)

    def test_low_p_example(self):
        assert rate_for_quantile(0.0, 0.01).rate == pytest.approx(0.010050335853501442, rel=1e-15)

    def test_cdf_round_trip(self):
        for x_p in (-3.0, -1.0, 0.0, 0.7, 4.0):
            for p in (1e-4, 1e-2, 0.3, 0.9):
                model = rate_for_quantile(x_p, p)
                assert model.cdf(x_p) == pytest.approx(p, abs=1e-12)

    def test_rejects_bad_level(self):
        with pytest.raises(DomainError):
            rate_for_quantile(0.0, 1.0)

    @pytest.mark.parametrize("x_p,fault", [(-1000.0, "overflows"), (1000.0, "underflows to 0")])
    def test_rejects_rate_out_of_range(self, x_p, fault):
        # e^{-x_p} is 1e434 or 1e-435: no positive finite double is the rate
        with pytest.raises(DomainError, match=rf"x_p = {x_p!r} .* p = 0\.01 .*{fault}"):
            rate_for_quantile(x_p, 0.01)

    def test_extreme_representable_rate_is_kept(self):
        # the product is subnormal but positive, so the model exists
        model = rate_for_quantile(700.0, 1e-10)
        assert 0.0 < model.rate < 1e-300


class TestLogExponential:
    def test_rejects_bad_rate(self):
        for rate in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                LogExponential(rate)

    def test_pdf_at_zero_unit_rate(self):
        assert LogExponential(1.0).pdf(0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_pdf_integrates_to_one(self):
        model = LogExponential(1.0)
        total, _ = integrate.quad(model.pdf, -40.0, 15.0, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_pdf_closed_form_at_calibrated_quantile(self):
        for x_p in (-2.0, 0.0, 1.3):
            for p in (1e-3, 0.05, 0.5):
                model = rate_for_quantile(x_p, p)
                expected = -math.log1p(-p) * (1.0 - p)
                assert model.pdf(x_p) == pytest.approx(expected, abs=1e-12)

    def test_pdf_tails_underflow_to_zero(self):
        model = LogExponential(1.0)
        assert model.pdf(800.0) == 0.0
        assert model.pdf(-800.0) == 0.0

    @pytest.mark.parametrize("x_p", [710.0, 720.0])
    def test_pdf_and_cdf_where_e_to_the_x_overflows(self, x_p):
        # the rate is subnormal and e^x_p overflows, but rate * e^x_p is about L
        p = 0.01
        model = rate_for_quantile(x_p, p)
        # a subnormal rate keeps fewer bits: about 29 at x_p = 720
        assert model.pdf(x_p) == pytest.approx(-math.log1p(-p) * (1.0 - p), rel=1e-7)
        assert model.cdf(x_p) == pytest.approx(p, rel=1e-7)

    def test_cdf_at_zero_unit_rate(self):
        assert LogExponential(1.0).cdf(0.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)

    def test_cdf_limits(self):
        model = LogExponential(1.0)
        assert model.cdf(-700.0) < 1e-300
        assert model.cdf(800.0) == 1.0
        assert model.cdf(1e308) == 1.0

    def test_cdf_rejects_non_finite(self):
        with pytest.raises(DomainError):
            LogExponential(1.0).cdf(math.inf)

    def test_cdf_derivative_is_pdf(self):
        model = LogExponential(0.7)
        h = 1e-6
        for x in (-3.0, -1.0, 0.0, 1.0, 2.0):
            fd = (model.cdf(x + h) - model.cdf(x - h)) / (2.0 * h)
            assert fd == pytest.approx(model.pdf(x), rel=1e-6)

    def test_quantile_known_values(self):
        assert LogExponential(1.0).quantile(1.0 - math.exp(-1.0)) == pytest.approx(0.0, abs=1e-14)
        assert LogExponential(2.0).quantile(0.5) == pytest.approx(-1.0596601011416096, rel=1e-14)

    def test_quantile_rejects_endpoints(self):
        with pytest.raises(DomainError):
            LogExponential(1.0).quantile(0.0)
        with pytest.raises(DomainError):
            LogExponential(1.0).quantile(1.0)

    def test_round_trip_from_level(self):
        model = LogExponential(0.37)
        for q in np.geomspace(1e-6, 0.5, 40).tolist() + (1.0 - np.geomspace(1e-6, 0.5, 40)).tolist():
            assert model.cdf(model.quantile(float(q))) == pytest.approx(q, abs=1e-12)

    @pytest.mark.parametrize("rate", [0.1, 0.02])
    def test_round_trip_from_point(self, rate):
        # rates are kept small enough that cdf(x) on [-20, 5] stays clear of
        # saturation at 1.0, where x would be unrecoverable at any accuracy
        model = LogExponential(rate)
        for x in np.linspace(-20.0, 5.0, 60):
            assert model.quantile(model.cdf(float(x))) == pytest.approx(float(x), abs=1e-9)

    def test_calibration_round_trip(self):
        for x_p in (-2.0, 0.0, 3.0):
            for p in (1e-5, 1e-2, 0.6):
                model = rate_for_quantile(x_p, p)
                assert model.quantile(p) == pytest.approx(x_p, abs=1e-12)


class TestSampling:
    def test_deterministic_given_stream(self):
        model = LogExponential(1.3)
        a = model.sample(1000, RngStream(5, (1,)))
        b = model.sample(1000, RngStream(5, (1,)))
        assert np.array_equal(a, b)

    def test_all_draws_finite(self):
        for rate in (1e-8, 1.0, 1e8):
            values = LogExponential(rate).sample(10_000, RngStream(8))
            assert np.all(np.isfinite(values))

    def test_kolmogorov_smirnov_against_cdf(self):
        model = LogExponential(0.8)
        n = 100_000
        draws = np.sort(model.sample(n, RngStream(31337)))
        # vectorized analytic CDF, written independently of the class
        cdf = -np.expm1(-model.rate * np.exp(draws))
        upper = np.max(np.abs(cdf - np.arange(1, n + 1) / n))
        lower = np.max(np.abs(cdf - np.arange(0, n) / n))
        assert max(upper, lower) < 0.01

    def test_rejects_bad_size(self):
        with pytest.raises(DomainError):
            LogExponential(1.0).sample(0, RngStream(1))


def lowest_cases() -> list[tuple[int, int]]:
    """(n, k) with k in {1, r, hi, n}, r = max(1, floor(n/100)) and hi its window top."""
    cases = []
    for n in (1, 2, 37, 1000, 100_000, 150_000):
        r = max(1, n // 100)
        cases.extend((n, k) for k in sorted({1, r, bootstrap_weights(n, r).hi, n}))
    return cases


class TestLowest:
    # the k smallest lattice integers of each row, drawn 3 rows or 1 row at a
    # time, partitioned in place and transformed, are bit for bit the k smallest
    # of the row's transformed draws from one block: the transform is
    # increasing and elementwise.  A simulation cell draws one row at a time
    # above 2^17 values per row, as at n = 150,000.
    @pytest.mark.parametrize("n,k", lowest_cases())
    def test_bit_identical_to_sorted_sample(self, n, k):
        rows = 8 if n >= 100_000 else 40
        lattice = _lattice(RngStream(2026, (n, k)).generator(), (rows, n))
        for rate in (1e-8, 0.37, 1.0, 1e8):
            model = LogExponential(rate)
            expected = np.sort(model._from_lattice(lattice))[:, :k]
            for chunk in (3, 1):
                lowest = model._lowest_rows(RngStream(2026, (n, k)).generator(), rows, n, k, chunk)
                assert lowest.tobytes() == expected.tobytes()

    def test_order_statistic_follows_beta_law(self):
        # F(X_(r)) of n iid draws is Beta(r, n-r+1) distributed, for the
        # x_(r) of every trial of a simulation cell under its own x_p
        n, p = 10_000, 0.01
        r = quantile_rank(n, p)
        config = ExperimentConfig(p_values=(p,), sample_sizes=(n,), trials=2000, seed=20_261_018)
        truth, tails = _cell_draws(config, (p, n, 1.0), r)
        u = [rate_for_quantile(x_p, p).cdf(x) for x_p, x in zip(truth.tolist(), tails[:, -1].tolist())]
        assert stats.kstest(u, stats.beta(r, n - r + 1).cdf).pvalue > 1e-3


class TestAsymptoticVariance:
    def test_simple_value(self):
        assert asymptotic_variance(0.5, 100, 1.0) == pytest.approx(0.0025, rel=1e-15)

    def test_doubling_n_halves_exactly(self):
        v1 = asymptotic_variance(0.01, 1000, 0.3)
        v2 = asymptotic_variance(0.01, 2000, 0.3)
        assert v2 == v1 / 2.0

    def test_calibrated_model_example(self):
        density = rate_for_quantile(0.0, 0.01).pdf(0.0)
        value = asymptotic_variance(0.01, 1000, density)
        assert value == pytest.approx(0.10000084174659053, rel=1e-12)
        # independent closed form for this model: p / (n (1-p) log^2(1-p))
        closed = 0.01 / (1000 * 0.99 * math.log1p(-0.01) ** 2)
        assert value == pytest.approx(closed, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            asymptotic_variance(0.1, 100, 0.0)
        with pytest.raises(DomainError):
            asymptotic_variance(0.1, 0, 1.0)


def prior_draws(prior_mean: float, sigma2: float, trials: int, seed: int) -> np.ndarray:
    """The x_p of every trial of a simulation cell with this prior."""
    config = ExperimentConfig(prior_mean=prior_mean, p_values=(0.1,), sample_sizes=(10,),
                              trials=trials, seed=seed)
    return _cell_draws(config, (0.1, 10, sigma2), 1)[0]


class TestNormalDraw:
    def test_deterministic(self):
        assert np.array_equal(prior_draws(2.0, 9.0, 5, 4), prior_draws(2.0, 9.0, 5, 4))

    def test_degenerate_variance_collapses_to_mean(self):
        assert np.all(np.abs(prior_draws(5.0, 1e-20, 50, 9) - 5.0) < 1e-9)

    def test_clt_mean(self):
        mean, variance, n = 3.0, 4.0, 20_000
        total = prior_draws(mean, variance, n, 77).sum()
        bound = 4.0 * math.sqrt(variance / n)
        assert abs(total / n - mean) < bound

    def test_rejects_bad_params(self):
        with pytest.raises(DomainError):
            PriorBelief(0.0, 0.0)
        with pytest.raises(DomainError):
            PriorBelief(math.nan, 1.0)
