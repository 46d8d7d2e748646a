import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.special import betainc, betaincc

import tailquant.bootstrap as bootstrap
from tailquant.bootstrap import (
    _GL_NODES,
    _GL_WEIGHTS,
    _MASS_FLOOR,
    _window_weights,
    bootstrap_variance,
    bootstrap_weights,
    tail_variance,
)
from tailquant.distributions import RngStream, rate_for_quantile
from tailquant.errors import DomainError, InsufficientSamples
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


def block_edges(n: int, r: int) -> tuple[int, int]:
    """(base, top): `_window_weights` evaluates cells base+1..top, r +/- (9*isqrt(r) + 40) clipped to 1..n."""
    s = 9 * math.isqrt(r) + 40
    return max(0, r - s), min(n, r + s)


@functools.lru_cache(maxsize=None)
def dense_weights(n: int, r: int) -> np.ndarray:
    """Reference: the cell kernel over all n cells, divided by the evaluated block's sum, masses below the floor zeroed."""
    w = bootstrap._cell_masses(n, r, 1, n)
    base, top = block_edges(n, r)
    w /= w[base:top].sum()
    w[w < _MASS_FLOOR] = 0.0
    return w


def scipy_weights(n: int, r: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Independent oracle: scipy's I_{i/n}(r, n-r+1) increments over cells lo+1..hi.

    Past the middle the complement is taken at (n-i)/n, whose rounding is
    relative to its own small size; i/n itself is rounded to an ulp of 1
    there, which moves the CDF by f * ulp(1), 1e-9 at r = n = 1e7.
    """
    i = np.arange(lo, n + 1 if hi is None else hi + 1)
    if 2 * r <= n:
        return np.diff(betainc(r, n - r + 1, i / n))
    return np.diff(betaincc(n - r + 1, r, (n - i) / n))


def walk_window(n: int, r: int) -> tuple[int, np.ndarray]:
    """(lo, weights of cells lo+1..hi) of a walk out from rank r, one cell evaluated at a time.

    Cell r holds the mode (r-1)/(n-1), so the masses fall on both sides of
    it.  Each side is walked until a cell's mass is below 1e-40, where the
    rest of that tail cannot move a CDF value near the 1e-15 floor by an ulp,
    or to the edge; I_j and 1 - I_j are then summed inwards from the far end.
    Each mass is divided by the total of the evaluated block, summed from
    single-cell evaluations.
    """
    base, top = block_edges(n, r)
    total = float(np.array([bootstrap._cell_masses(n, r, i, i)[0] for i in range(base + 1, top + 1)]).sum())

    def side(cells) -> list[float]:
        masses = []
        for i in cells:
            masses.append(float(bootstrap._cell_masses(n, r, i, i)[0]) / total)
            if masses[-1] < 1e-40:
                break
        return masses

    down = side(range(r, 0, -1))  # cells r, r-1, ...
    up = side(range(r + 1, n + 1))  # cells r+1, r+2, ...
    cdf = np.cumsum(down[::-1])[::-1].tolist() + ([0.0] if len(down) == r else [])  # I_r, I_(r-1), ...
    tail = np.cumsum(up[::-1])[::-1].tolist() + ([0.0] if len(up) == n - r else [])  # 1-I_r, 1-I_(r+1), ...
    lo = r - next(k for k, value in enumerate(cdf) if value < _MASS_FLOOR)
    hi = r + next(k for k, value in enumerate(tail) if value < _MASS_FLOOR)
    window = np.array(down[: r - lo][::-1] + up[: hi - r])
    window[window < _MASS_FLOOR] = 0.0
    return lo, window


def oracle_grid() -> list[tuple[int, int]]:
    """(n, r) of `window_grid` and r = floor(n*p), 1 and n up to n = 1e7, p up to 0.5."""
    cases = set(window_grid()) | {(3 * 10**6, 15 * 10**5)}
    for n in (10**3, 10**5, 10**6, 10**7):
        cases.update({(n, 1), (n, n)} | {(n, math.floor(n * p)) for p in (0.01, 0.1, 0.5)})
    return sorted(cases)


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

    def test_gauss_legendre_constants_are_numpys(self):
        nodes, weights = np.polynomial.legendre.leggauss(8)
        assert _GL_NODES.tobytes() == nodes.tobytes()
        assert _GL_WEIGHTS.tobytes() == weights.tobytes()


class TestWeightWindow:
    @pytest.mark.parametrize("n,r", window_grid())
    def test_bit_identical_to_dense(self, n, r):
        weights = bootstrap_weights(n, r)
        dense = dense_weights(n, r)
        assert weights.lo < r <= weights.hi
        assert weights.w.tobytes() == dense.tobytes()
        assert weights.window.tobytes() == dense[weights.lo : weights.hi].tobytes()

    @pytest.mark.parametrize("n,r", window_grid() + [(10**5, 1000), (10**6, 5 * 10**5), (10**7, 10**5)])
    def test_bit_identical_to_the_scalar_walk(self, n, r):
        # the block and the CDF sums from its edges give the lo, hi and
        # weights of a cell-by-cell walk
        lo, expected = walk_window(n, r)
        weights = bootstrap_weights(n, r)
        assert (weights.lo, weights.hi) == (lo, lo + expected.size)
        assert weights.window.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n,r", oracle_grid())
    def test_matches_scipy_increments(self, n, r):
        weights = bootstrap_weights(n, r)
        # The 8-point rule is exact to rounding on a cell of width 1/n: over
        # this grid a 12-point rule moves no weight by more than 4e-16, and a
        # 4-point rule by 9e-11.  Dividing by the block's sum, which misses
        # under 5.2e-18 of the total 1, adds a few ulps relative; each log1p
        # term of size |u| adds about eps*|u| relative, and the weight is
        # negligible where |u| is large.  The reference rounds the cell
        # edges x = i/n to half an ulp, which moves each increment by up to
        # f * ulp(x): 3e-13 at n = 1e7, p = 0.5, where the density f peaks at
        # 2.5e3.  Together this is under 1e-12.
        reference = scipy_weights(n, r, weights.lo, weights.hi)
        np.testing.assert_allclose(weights.window, reference, rtol=0.0, atol=1e-12)
        assert abs(float(weights.window.sum()) - 1.0) <= 1e-12
        assert weights.lo < r <= weights.hi

    @pytest.mark.parametrize(
        "n,r",
        [
            (10**7, 1), (10**7, 2), (10**7, 10), (10**7, 16), (10**7, 100), (10**7, 10**7),
            (10**6, 16), (10**5, 100), (1000, 10), (1000, 999), (30, 15), (10, 5),
        ],
    )
    def test_matches_mpmath_increments(self, n, r):
        # At small ranks with large n scipy's betainc drifts (2.4e-10 at
        # (1e7, 16), cell 17), so the reference is 40-digit mpmath, floored
        # as the package floors; central ranks of large n, where scipy is
        # accurate, are left out because mpmath does not converge quickly there.
        weights = bootstrap_weights(n, r)
        with mpmath.workdps(40):
            cdf = [mpmath.betainc(r, n - r + 1, 0, mpmath.mpf(j) / n, regularized=True)
                   for j in range(weights.lo, weights.hi + 1)]
            reference = np.array([float(b - a) for a, b in zip(cdf, cdf[1:])])
            assert cdf[0] < _MASS_FLOOR and 1 - cdf[-1] < _MASS_FLOOR
        reference[reference < _MASS_FLOOR] = 0.0
        np.testing.assert_allclose(weights.window, reference, rtol=0.0, atol=1e-15)

    # (n, r, lo, hi): a central and a small rank at n = 1e8 and 1e9, with the window
    # (lo, hi] that bootstrap_weights gives them, written out so that only single cells
    # are evaluated here
    @pytest.mark.parametrize(
        "n,r,lo,hi",
        [(10**8, 5 * 10**7, 49960292, 50039707), (10**8, 1000, 769, 1273),
         (10**9, 5 * 10**8, 499874435, 500125564), (10**9, 10, 0, 59)],
    )
    def test_cell_ratios_match_the_integrand_in_mpmath_beyond_1e7(self, n, r, lo, hi):
        # No library Beta reaches central ranks at these n, so the reference is the
        # kernel's own 8-point integrand in 40-digit mpmath, as ratios to cell r.
        # - Bound: every ratio within rtol = 1e-11 relative; the worst, 6.5e-12 at the
        #   window's edges at (1e9, 5e8), comes from each log1p term of size |u|.  A
        #   weight is its ratio over the sum of the ratios, whose relative error is at
        #   most the largest ratio's, so a weight is off by at most 2 * rtol * max(w)
        #   absolute: 2e-11 for any window, 5e-16 at (1e9, 5e8), where max(w) is 2.5e-5.
        # - The rule's own error is not in this comparison.  On a cell of width 1 in u
        #   it is (8!)^4 / (17 (16!)^3) * f^(16) = 1.7e-23 * f^(16), and f^(16) / f is
        #   of order 1 where log f changes by less than 1 per cell, as it does in these
        #   windows but for the first cells at r = 10.  Against 40-digit betainc there,
        #   the rule is off by 5.9e-13 relative in cell 1, whose weight is 1.1e-7, and
        #   by 1.1e-16 in cell 2.
        rtol = 1e-11

        def integrand(i):
            total = mpmath.mpf(0)
            for node, weight in zip(_GL_NODES.tolist(), _GL_WEIGHTS.tolist()):
                u = i - r - mpmath.mpf(0.5) + mpmath.mpf(node) / 2
                log_f = (r - 1) * mpmath.log1p(u / r) + (n - r) * mpmath.log1p(-u / (n - r))
                total += weight * mpmath.exp(log_f)
            return total

        centre = float(bootstrap._cell_masses(n, r, r, r)[0])
        with mpmath.workdps(40):
            reference_centre = integrand(r)
            for i in np.linspace(lo + 1, hi, 10).round().astype(int).tolist():
                ratio = float(bootstrap._cell_masses(n, r, i, i)[0]) / centre
                reference = float(integrand(i) / reference_centre)
                assert ratio == pytest.approx(reference, rel=rtol, abs=0.0), i

    def test_one_block_holds_every_window(self, monkeypatch):
        # the kernel is called once per window, on r +/- (9*isqrt(r) + 40)
        cases = {(n, r) for n in (1, 2, 3, 40, 41, 1000, 9973, 10**5, 10**7) for r in (1, 2, n - 1, n) if 1 <= r <= n}
        for n in np.unique(np.logspace(0, 7, 36).astype(int)).tolist():
            cases.update({(n, r) for r in (math.floor(n * 0.01), math.floor(n * 0.001), n // 2) if r >= 1})
        blocks = []
        evaluate = bootstrap._cell_masses
        monkeypatch.setattr(bootstrap, "_cell_masses", lambda *args: blocks.append(args) or evaluate(*args))
        _window_weights.cache_clear()
        try:
            for n, r in sorted(cases):
                blocks.clear()
                weights = bootstrap_weights(n, r)
                step = 9 * math.isqrt(r) + 40
                assert [args[-2:] for args in blocks] == [(max(0, r - step) + 1, min(n, r + step))]
                assert weights.lo < r <= weights.hi
        finally:
            _window_weights.cache_clear()

    def test_the_tail_bounds_put_both_stops_in_the_block(self):
        # the exponents of the two bounds in `_window_weights`, pure math: the
        # Bernstein bound below r and the Chernoff bound above r, each >= 40.5
        # in exact arithmetic (1e-5 covers the rounding at r = 1e18)
        def below(r):
            s = 9 * math.isqrt(r) + 40
            return (s - 1) ** 2 / (2 * r)

        def above(r):
            s = 9 * math.isqrt(r) + 40
            return s if r == 1 else s - (r - 1) * math.log1p(s / (r - 1))

        ranks = list(range(1, 10**5 + 1)) + [10**k + d for k in range(6, 19) for d in (-1, 0, 1)]
        assert min(below(r) for r in ranks) >= 40.5
        assert min(above(r) for r in ranks) >= 40.5 - 1e-5
        assert math.exp(-40.5) < _MASS_FLOOR / 380

    @pytest.mark.parametrize("n", [100, 1000, 9973, 10**5, 10**6])
    @pytest.mark.parametrize("p", [0.001, 0.01, 0.1, 0.5, 0.99])
    def test_scipy_puts_no_mass_beyond_the_block(self, n, p):
        r = max(1, math.floor(n * p))
        step = 9 * math.isqrt(r) + 40
        a, b = r, n - r + 1
        if r > step:
            assert betainc(a, b, (r - step) / n) < 1e-17
        if r + step < n:
            assert betaincc(a, b, (r + step) / n) < 1e-17

    @pytest.mark.parametrize("n", [100, 1000, 9973, 30_000])
    @pytest.mark.parametrize("p", [0.01, 0.5, 0.9])
    def test_variance_matches_dense_dot(self, n, p):
        data = np.sort(np.random.default_rng(n).standard_normal(n))
        r = quantile_rank(n, p)
        expected = float(np.dot((data - data[r - 1]) ** 2, scipy_weights(n, r)))
        value = bootstrap_variance(data, p)
        # the weights agree to 1e-12 absolute (test_matches_scipy_increments)
        assert value == pytest.approx(expected, rel=1e-10)

    def test_window_is_narrow(self):
        # the Beta(r, n-r+1) mass sits within about r +/- c*sqrt(r) cells:
        # 163 cell masses are kept here instead of 1e5
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
        # the bound is derived in test_matches_scipy_increments
        np.testing.assert_allclose(weights.window, reference, rtol=0.0, atol=1e-12)
        assert betainc(a, b, weights.lo / n) < _MASS_FLOOR
        assert betaincc(a, b, weights.hi / n) < _MASS_FLOOR

    @pytest.mark.parametrize("n,r", [(3_000_000, 1_500_000), (10**7, 5 * 10**6)])
    def test_central_ranks_up_to_1e7_are_normalized(self, n, r):
        assert abs(float(bootstrap_weights(n, r).window.sum()) - 1.0) <= 1e-12

    def test_variance_at_1e7_values_matches_scipy(self):
        n, p = 10**7, 0.5
        data = np.random.default_rng(7).standard_normal(n)
        r = quantile_rank(n, p)
        weights = bootstrap_weights(n, r)
        window = np.sort(np.partition(data, [weights.lo, weights.hi - 1])[weights.lo : weights.hi])
        reference = float(np.dot((window - window[r - 1 - weights.lo]) ** 2, scipy_weights(n, r, weights.lo, weights.hi)))
        assert bootstrap_variance(data, p) == pytest.approx(reference, rel=1e-10)


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
