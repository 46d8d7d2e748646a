import math

import numpy as np
import pytest
from scipy import special as sps

import tailquant.special_functions as sf
from tailquant.errors import DomainError, NoConvergence
from tailquant.special_functions import (
    log_beta,
    log_gamma,
    normal_quantile,
    regularized_incomplete_beta,
)


class TestLogGamma:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (1.0, 0.0),
            (2.0, 0.0),
            (5.0, math.log(24.0)),
            (0.5, 0.5 * math.log(math.pi)),
        ],
    )
    def test_known_values(self, x, expected):
        assert log_gamma(x) == pytest.approx(expected, abs=1e-12)

    def test_matches_lgamma_small_arguments(self):
        # absolute accuracy where ln(Gamma) itself is of moderate size
        for x in np.concatenate([np.linspace(0.01, 0.5, 50), np.linspace(0.5, 50, 500)]):
            assert log_gamma(float(x)) == pytest.approx(math.lgamma(float(x)), abs=1e-12)

    def test_matches_lgamma_large_arguments(self):
        # ln(Gamma(1e6)) ~ 1.28e7, so machine-level relative accuracy is the bar
        for x in np.geomspace(50, 1e6, 300):
            ref = math.lgamma(float(x))
            assert log_gamma(float(x)) == pytest.approx(ref, rel=5e-15)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5, math.inf, math.nan])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)

    def test_recurrence(self):
        # ln Gamma(x+1) = ln Gamma(x) + ln x
        for x in [0.1, 0.9, 1.7, 3.1415, 12.0, 400.5]:
            lhs = log_gamma(x + 1.0)
            rhs = log_gamma(x) + math.log(x)
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


class TestBetaParams:
    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0), (-2.0, 3.0), (math.nan, 1.0), (1.0, math.inf)])
    def test_rejects_bad_shapes(self, a, b):
        with pytest.raises(DomainError, match="beta shape [ab] must be finite and > 0"):
            regularized_incomplete_beta(0.5, a, b)

    def test_log_beta(self):
        assert log_beta(3.0, 4.0) == pytest.approx(math.log(1.0 / 60.0), rel=1e-13)


class TestRegularizedIncompleteBeta:
    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.5, 7.0), (40.0, 3.0), (0.5, 0.5)])
    def test_endpoints_exact(self, a, b):
        assert regularized_incomplete_beta(0.0, a, b) == 0.0
        assert regularized_incomplete_beta(1.0, a, b) == 1.0

    def test_uniform_cdf_is_identity(self):
        for x in np.linspace(0.01, 0.99, 25):
            assert regularized_incomplete_beta(float(x), 1.0, 1.0) == pytest.approx(x, abs=1e-14)

    @pytest.mark.parametrize("a", [0.7, 1.0, 2.0, 5.0, 33.0])
    def test_symmetric_midpoint(self, a):
        assert regularized_incomplete_beta(0.5, a, a) == pytest.approx(0.5, abs=1e-13)

    def test_symmetry_relation(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            a = float(10.0 ** rng.uniform(-0.3, 1.7))
            b = float(10.0 ** rng.uniform(-0.3, 1.7))
            x = float(rng.uniform(0.0, 1.0))
            lhs = regularized_incomplete_beta(x, a, b)
            rhs = regularized_incomplete_beta(1.0 - x, b, a)
            assert lhs + rhs == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_x(self):
        grid = np.linspace(0.0, 1.0, 401)
        values = [regularized_incomplete_beta(float(x), 3.2, 11.0) for x in grid]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))

    def test_matches_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(400):
            a = float(10.0 ** rng.uniform(-0.3, 2.0))
            b = float(10.0 ** rng.uniform(-0.3, 2.0))
            x = float(rng.uniform(0.0, 1.0))
            ours = regularized_incomplete_beta(x, a, b)
            assert ours == pytest.approx(float(sps.betainc(a, b, x)), abs=1e-12)

    def test_derivative_matches_integrand(self):
        # central difference of I_x should reproduce the beta density
        h = 1e-6
        for a, b in [(2.0, 3.0), (1.5, 4.0), (5.0, 5.0), (0.7, 2.5)]:
            log_norm = log_beta(a, b)
            for x in (0.2, 0.35, 0.5, 0.65, 0.8):
                fd = (
                    regularized_incomplete_beta(x + h, a, b)
                    - regularized_incomplete_beta(x - h, a, b)
                ) / (2.0 * h)
                density = math.exp((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - log_norm)
                assert fd == pytest.approx(density, rel=1e-6)

    def test_saturated_tails(self):
        # far outside the transition window the value saturates cleanly
        assert regularized_incomplete_beta(0.0005, 1000.0, 99001.0) == 0.0
        assert regularized_incomplete_beta(0.9, 1000.0, 99001.0) == 1.0

    @pytest.mark.parametrize("x", [-0.1, 1.1, math.nan])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            regularized_incomplete_beta(x, 2.0, 2.0)

    def test_no_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(sf, "CF_MAX_ITER", 1)
        with pytest.raises(NoConvergence):
            regularized_incomplete_beta(0.4, 20.0, 30.0)


class TestNormalQuantile:
    def test_center_and_symmetry(self):
        assert normal_quantile(0.5) == 0.0
        for p in (0.01, 0.1, 0.25, 0.4, 0.975):
            assert normal_quantile(p) == pytest.approx(-normal_quantile(1.0 - p), abs=1e-13)

    def test_matches_scipy_ndtri(self):
        ps = np.concatenate(
            [np.geomspace(1e-300, 0.4, 400), np.linspace(0.4, 0.6, 50), 1.0 - np.geomspace(1e-16, 0.4, 200)]
        )
        for p in ps:
            assert normal_quantile(float(p)) == pytest.approx(float(sps.ndtri(p)), abs=1e-9)

    def test_round_trip_with_normal_cdf(self):
        # upper limit 5.5: beyond it ulp(p)/pdf(x) exceeds the tolerance, a
        # representation limit of p near 1 rather than an inversion error
        for x in np.linspace(-8.0, 5.5, 136):
            p = float(sps.ndtr(x))
            assert normal_quantile(p) == pytest.approx(float(x), abs=1e-8)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.2, math.nan])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            normal_quantile(p)
