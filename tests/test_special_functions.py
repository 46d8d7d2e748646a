import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import special as sps

import tailquant.bootstrap as bootstrap
from tailquant.bootstrap import _GL_NODES, _GL_WEIGHTS, bootstrap_weights


class TestBetaParams:
    def test_log_beta(self):
        # Beta(3, 4) at n = 6: I_x(3, 4) = sum_{j=3..6} C(6, j) x^j (1-x)^(6-j),
        # so the weights are exact rationals, each I_{i/6} - I_{(i-1)/6}
        def cdf(x: Fraction) -> Fraction:
            return sum(math.comb(6, j) * x**j * (1 - x) ** (6 - j) for j in range(3, 7))

        exact = [float(cdf(Fraction(i, 6)) - cdf(Fraction(i - 1, 6))) for i in range(1, 7)]
        np.testing.assert_allclose(bootstrap_weights(6, 3).w, exact, rtol=0.0, atol=1e-15)


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


def scalar_cell_mass(n: int, r: int, i: int) -> float:
    """The 8-point Gauss-Legendre mass of cell i relative to f(r/n), one node at a time in Python floats."""
    f = []
    for t in _GL_NODES.tolist():
        u = (i - (r + 0.5)) + t / 2.0
        log_f = 0.0
        if r > 1:
            log_f += (r - 1) * float(np.log1p(np.float64(u / r)))
        if n > r:
            log_f += (n - r) * float(np.log1p(np.float64(-u / (n - r))))
        f.append(float(np.exp(np.float64(log_f))))
    total = 0.0
    for k, w in enumerate(_GL_WEIGHTS[:4].tolist()):
        total += w * (f[k] + f[-1 - k])
    return total


class TestArrayKernel:
    """`bootstrap._cell_masses` evaluates a block of cells with the bits of one cell at a time."""

    def test_one_cell_has_the_bits_of_the_scalar_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(10.0 ** rng.uniform(0.0, 7.0))
            r = int(rng.integers(1, n + 1))
            i = min(n, max(1, r + int(rng.normal(0.0, 3.0 * math.sqrt(r) + 1.0))))
            assert bootstrap._cell_masses(n, r, i, i)[0] == scalar_cell_mass(n, r, i)

    @pytest.mark.parametrize("n,r", [(49, 20), (63_000, 630), (3000, 1500), (2001, 2001)])
    def test_a_block_of_cells_has_the_bits_of_the_scalar_reference(self, n, r):
        cells = np.unique(np.linspace(1, n, 2001).astype(int)).tolist()
        block = bootstrap._cell_masses(n, r, 1, n)
        expected = np.array([scalar_cell_mass(n, r, i) for i in cells])
        assert block[np.array(cells) - 1].tobytes() == expected.tobytes()
