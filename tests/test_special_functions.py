import math
from statistics import NormalDist

import mpmath
import numpy as np
import pytest
from scipy import special as sps

import tailquant.bootstrap as bootstrap
from tailquant.bootstrap import _GL_NODES, _GL_WEIGHTS, _stirlerr, bootstrap_weights, log_beta_density

# the standard normal quantile that `distributions.normal_draw` evaluates:
# the standard library's AS 241 (Wichura's PPND16)
normal_quantile = NormalDist().inv_cdf


def mp_log_beta_density(n: int, r: int) -> float:
    """log of the Beta(r, n-r+1) density at r/n in 40-digit arithmetic."""
    with mpmath.workdps(40):
        x = mpmath.mpf(r) / n
        value = mpmath.loggamma(n + 1) - mpmath.loggamma(r) - mpmath.loggamma(n - r + 1)
        if r > 1:
            value += (r - 1) * mpmath.log(x)
        if n > r:
            value += (n - r) * mpmath.log1p(-x)
        return float(value)


class TestLogBetaDensity:
    """Loader's saddle-point form of log f(r/n), the constant of every bootstrap weight."""

    @pytest.mark.parametrize(
        "n,r",
        [
            (1, 1), (2, 1), (10, 5), (30, 15), (1000, 10), (1000, 999), (10**5, 1000),
            (10**6, 5 * 10**5), (3 * 10**6, 15 * 10**5), (10**7, 16), (10**7, 10**5),
            (10**7, 5 * 10**6), (10**7, 1), (10**7, 10**7),
        ],
    )
    def test_matches_mpmath(self, n, r):
        # log f(r/n) is at most about 17, so 1e-14 is a few ulps of it
        assert abs(log_beta_density(n, r) - mp_log_beta_density(n, r)) <= 1e-14

    def test_stirling_error_matches_mpmath(self):
        # both branches: the lgamma form for k <= 15 and the series above it
        for k in list(range(1, 40)) + [80, 81, 500, 501, 10**4, 10**7]:
            with mpmath.workdps(40):
                ref = mpmath.loggamma(k + 1) - (k + mpmath.mpf(0.5)) * mpmath.log(k) + k - mpmath.log(2 * mpmath.pi) / 2
            assert abs(_stirlerr(k) - float(ref)) <= 1e-14
        assert _stirlerr(0) == 0.0


def log_gamma(x: int) -> float:
    """log Gamma(x) = log (x-1)! for integers x >= 2 in Loader's form: Stirling's formula plus `_stirlerr`."""
    k = x - 1
    return (k + 0.5) * math.log(k) - k + 0.5 * math.log(2.0 * math.pi) + _stirlerr(k)


class TestLogGamma:
    """The Stirling error behind log f(r/n), read back as a log-gamma against `math.lgamma`."""

    def test_matches_lgamma_small_arguments(self):
        # absolute accuracy where ln(Gamma) itself is of moderate size, on
        # both sides of the switch from lgamma to the series at k = 15
        for x in range(2, 52):
            assert log_gamma(x) == pytest.approx(math.lgamma(x), abs=1e-12)

    def test_matches_lgamma_large_arguments(self):
        # ln(Gamma(1e6)) ~ 1.28e7, so machine-level relative accuracy is the bar;
        # the series is cut at k = 35, 80 and 500
        for x in np.unique(np.geomspace(50, 1e6, 300).astype(int)).tolist():
            assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=5e-15)


class TestBetaParams:
    def test_log_beta(self):
        # log f(1/2) of Beta(3, 4) is log((1/2)^2 (1/2)^3 / B(3, 4)), B(3, 4) = 1/60
        assert log_beta_density(6, 3) == pytest.approx(5.0 * math.log(0.5) - math.log(1.0 / 60.0), rel=1e-13)


def beta_cdf(n: int, r: int) -> np.ndarray:
    """I_{j/n}(r, n-r+1) for j = 0..n, the cumulative sum of the bootstrap weights."""
    return np.concatenate(([0.0], np.cumsum(bootstrap_weights(n, r).w)))


def random_shapes(seed: int, count: int) -> list[tuple[int, int, int]]:
    """(n, r, j): integer shapes a = r and b = n-r+1 from 1 to 100 and a cell edge j."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        a, b = (max(1, round(10.0 ** rng.uniform(-0.3, 2.0))) for _ in range(2))
        n = a + b - 1
        cases.append((n, a, int(rng.integers(0, n + 1))))
    return cases


class TestRegularizedIncompleteBeta:
    """I_x(r, n-r+1) at the cell edges x = j/n, as the package computes it: the bootstrap weights are its increments."""

    def test_uniform_cdf_is_identity(self):
        # the Beta(r, n-r+1) densities of r = 1..n sum to n, so the mean of
        # their CDFs is the uniform one
        for n in (1, 2, 7, 25):
            mean = np.mean([beta_cdf(n, r) for r in range(1, n + 1)], axis=0)
            np.testing.assert_allclose(mean, np.arange(n + 1) / n, rtol=0.0, atol=1e-14)

    def test_symmetry_relation(self):
        # I_x(a, b) + I_{1-x}(b, a) = 1, and Beta(b, a) is the law of rank n+1-r
        for n, r, j in random_shapes(42, 300):
            assert beta_cdf(n, r)[j] + beta_cdf(n, n + 1 - r)[n - j] == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_x(self):
        for n, r in [(13, 3), (400, 100)]:
            values = beta_cdf(n, r)
            assert np.all(np.diff(values) >= 0.0)

    def test_matches_scipy(self):
        for n, r, j in random_shapes(7, 400):
            assert beta_cdf(n, r)[j] == pytest.approx(float(sps.betainc(r, n - r + 1, j / n)), abs=1e-12)

    def test_derivative_matches_integrand(self):
        # n * w_i is the central difference of I over cell i, which is the
        # density at its midpoint up to f'' / (24 n^2 f), below 4e-7 within
        # 1.5 standard deviations of the mode at n = 1e6
        n = 10**6
        for r in (2 * 10**5, 5 * 10**5):
            a, b = r, n - r + 1
            w = bootstrap_weights(n, r).w
            log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
            sd = math.sqrt(r * (n - r) / n) / n
            for z in (-1.5, -0.5, 0.0, 0.5, 1.5):
                i = math.ceil(n * (r / n + z * sd))
                x = (i - 0.5) / n
                density = math.exp((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - log_norm)
                assert n * w[i - 1] == pytest.approx(density, rel=1e-6)

    def test_saturated_tails(self):
        # far outside the window the value saturates cleanly: I from below and
        # 1 - I from the top, as the window walk reads them, are exactly 0
        w = bootstrap_weights(100_000, 1000).w
        assert np.sum(w[:50]) == 0.0  # x = 0.0005
        assert np.sum(w[90_000:]) == 0.0  # x = 0.9


def scalar_cell_mass(n: int, r: int, log_f0: float, i: int) -> float:
    """The 8-point Gauss-Legendre mass of cell i, one node at a time in Python floats."""
    f = []
    for t in _GL_NODES.tolist():
        u = (i - (r + 0.5)) + t / 2.0
        log_f = log_f0
        if r > 1:
            log_f += (r - 1) * float(np.log1p(np.float64(u / r)))
        if n > r:
            log_f += (n - r) * float(np.log1p(np.float64(-u / (n - r))))
        f.append(float(np.exp(np.float64(log_f))))
    total = 0.0
    for k, w in enumerate(_GL_WEIGHTS[:4].tolist()):
        total += w * (f[k] + f[-1 - k])
    return total / (2 * n)


class TestArrayKernel:
    """`bootstrap._cell_masses` evaluates a block of cells with the bits of one cell at a time."""

    def test_one_cell_has_the_bits_of_the_scalar_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(10.0 ** rng.uniform(0.0, 7.0))
            r = int(rng.integers(1, n + 1))
            i = min(n, max(1, r + int(rng.normal(0.0, 3.0 * math.sqrt(r) + 1.0))))
            log_f0 = log_beta_density(n, r)
            assert bootstrap._cell_masses(n, r, log_f0, i, i)[0] == scalar_cell_mass(n, r, log_f0, i)

    @pytest.mark.parametrize("n,r", [(49, 20), (63_000, 630), (3000, 1500), (2001, 2001)])
    def test_a_block_of_cells_has_the_bits_of_the_scalar_reference(self, n, r):
        log_f0 = log_beta_density(n, r)
        cells = np.unique(np.linspace(1, n, 2001).astype(int)).tolist()
        block = bootstrap._cell_masses(n, r, log_f0, 1, n)
        expected = np.array([scalar_cell_mass(n, r, log_f0, i) for i in cells])
        assert block[np.array(cells) - 1].tobytes() == expected.tobytes()


class TestNormalQuantile:
    """The prior draw's normal quantile; its inputs are lattice uniforms, never 0 or 1."""

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
