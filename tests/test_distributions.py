import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

import tailquant
import tailquant.distributions as distributions
from tailquant.bayes import PriorBelief
from tailquant.bootstrap import bootstrap_weights
from tailquant.distributions import (
    LogExponential,
    RngStream,
    asymptotic_variance,
    normal_draw,
    rate_for_quantile,
)
from tailquant.errors import DomainError
from tailquant.estimators import quantile_rank


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
    for n in (1, 2, 37, 1000, 100_000):
        r = max(1, n // 100)
        cases.extend((n, k) for k in sorted({1, r, bootstrap_weights(n, r).hi, n}))
    return cases


class TestLowest:
    @pytest.mark.parametrize("n,k", lowest_cases())
    def test_bit_identical_to_sorted_sample(self, n, k):
        rates = (1e-8, 0.37, 1.0, 1e8)
        for i in range(8 if n == 100_000 else 40):
            model = LogExponential(rates[i % len(rates)])
            stream = RngStream(2026, (n, k, i))
            expected = np.sort(model.sample(n, stream))[:k]
            assert model.lowest(n, k, stream).tobytes() == expected.tobytes()

    def test_read_only(self):
        values = LogExponential(1.0).lowest(50, 5, RngStream(3))
        assert not values.flags.writeable

    @pytest.mark.parametrize("n,k", [(10, 0), (10, 11), (10, -1), (10, 2.0), (0, 1)])
    def test_rejects_k_outside_one_to_n(self, n, k):
        with pytest.raises(DomainError):
            LogExponential(1.0).lowest(n, k, RngStream(1))

    def test_order_statistic_follows_beta_law(self):
        # F(X_(r)) of n iid draws is Beta(r, n-r+1) distributed
        n, p = 10_000, 0.01
        r = quantile_rank(n, p)
        model = LogExponential(1.0)
        root = RngStream(20_261_018)
        u = [model.cdf(float(model.lowest(n, r, root.child(i))[r - 1])) for i in range(2000)]
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


class TestNormalDraw:
    def test_deterministic(self):
        prior = PriorBelief(2.0, 9.0)
        assert normal_draw(prior, RngStream(4, (2,))) == normal_draw(prior, RngStream(4, (2,)))

    def test_degenerate_variance_collapses_to_mean(self):
        prior = PriorBelief(5.0, 1e-20)
        for i in range(50):
            assert abs(normal_draw(prior, RngStream(9, (i,))) - 5.0) < 1e-9

    def test_clt_mean(self):
        prior = PriorBelief(3.0, 4.0)
        root = RngStream(77)
        n = 20_000
        total = sum(normal_draw(prior, root.child(i)) for i in range(n))
        bound = 4.0 * math.sqrt(prior.variance / n)
        assert abs(total / n - prior.mean) < bound

    def test_rejects_bad_params(self):
        with pytest.raises(DomainError):
            PriorBelief(0.0, 0.0)
        with pytest.raises(DomainError):
            PriorBelief(math.nan, 1.0)


# The pinned bits of the prior draw: k is the lattice integer of the uniform
# u = k * 2^-53, then float.hex of the standard normal quantile at u and of
# the N(-3, 2.5) draw at u.  They were recorded from the package's own copy
# of Wichura's PPND16, which the draw used before it called
# `statistics.NormalDist.inv_cdf`, the same algorithm (AS 241) evaluated in
# the same operations.  The rows cover u = 2^-53 and 1 - 2^-53, the far
# tail below exp(-25) ~ 1.4e-11, the tail, the last tail and first central
# lattice points at both edges of the central branch, |u - 0.5| <= 0.425,
# and u = 0.5.
PINNED_DRAWS = [
    (1, "-0x1.06b48528cea51p+3", "-0x1.ff5f922f70b1bp+3"),
    (3, "-0x1.02734508d1f1cp+3", "-0x1.f8a55096569f7p+3"),
    (8192, "-0x1.c30d8560989abp+2", "-0x1.c496abf2f9c21p+3"),
    (9007, "-0x1.c2350895b2ea4p+2", "-0x1.c3eb85f72f195p+3"),
    (9007199255, "-0x1.30381a97985f1p+2", "-0x1.5081a0cf61c7ap+3"),
    (90071992547410, "-0x1.29c5c4630ff0ep+1", "-0x1.ab68ec2352238p+2"),
    (675539944105574, "-0x1.7085226d3e524p+0", "-0x1.51ab9b957f62ep+2"),
    (675539944105575, "-0x1.7085226d3e521p+0", "-0x1.51ab9b957f62dp+2"),
    (676440664031048, "-0x1.7056dc6686c9cp+0", "-0x1.51995107ece11p+2"),
    (2702159776422298, "-0x1.0c7e39582c5fap-1", "-0x1.ea21966eff545p+1"),
    (4503599627370496, "0x0.0p+0", "-0x1.8000000000000p+1"),
    (8331659310635417, "0x1.7085226d3e521p+0", "-0x1.72a3235404e98p-1"),
    (8331659310635418, "0x1.7085226d3e524p+0", "-0x1.72a3235404e90p-1"),
    (8917127262193582, "0x1.29c5c4630ff0ep+1", "0x1.5b47611a911c0p-1"),
    (2**53 - 9007, "0x1.c2350895b2ea4p+2", "0x1.03eb85f72f195p+3"),
    (2**53 - 1, "0x1.06b48528cea51p+3", "0x1.3f5f922f70b1bp+3"),
]
# normal_draw(PriorBelief(1.5, 0.7), RngStream(2024, (i, 3))) for i = 0..3,
# recorded the same way: the generator and the lattice on top of the quantile
PINNED_STREAM_DRAWS = [
    "0x1.a1fa2db8c2676p+0", "0x1.474f39e06d2d0p+0", "0x1.7beb05b97e47fp+0", "0x1.3b94ea2272576p+0",
]


def pinned_draw_bits() -> dict:
    """float.hex of every pinned draw through `normal_draw`, with `_lattice` held at each k."""
    lattice = distributions._lattice
    standard, prior = PriorBelief(0.0, 1.0), PriorBelief(-3.0, 2.5)
    bits = {"z": [], "x": []}
    try:
        for k, _, _ in PINNED_DRAWS:
            distributions._lattice = lambda gen, size=None, k=k: np.int64(k)
            bits["z"].append(normal_draw(standard, RngStream(0)).hex())
            bits["x"].append(normal_draw(prior, RngStream(0)).hex())
    finally:
        distributions._lattice = lattice
    bits["stream"] = [
        normal_draw(PriorBelief(1.5, 0.7), RngStream(2024, (i, 3))).hex() for i in range(4)
    ]
    bits["inv_cdf_module"] = statistics._normal_dist_inv_cdf.__module__
    return bits


# runs `pinned_draw_bits` in a fresh interpreter whose `statistics` cannot
# import its C accelerator, so it falls back to its pure-Python AS 241
_FALLBACK_CHILD = """
import importlib.util, json, sys
sys.modules["_statistics"] = None
spec = importlib.util.spec_from_file_location("pinned", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
print(json.dumps(module.pinned_draw_bits()))
"""


class TestPriorDrawBits:
    """The prior draw keeps the bits of the PPND16 it replaced, in both of CPython's AS 241s."""

    def expected(self, inv_cdf_module: str) -> dict:
        return {
            "z": [z for _, z, _ in PINNED_DRAWS],
            "x": [x for _, _, x in PINNED_DRAWS],
            "stream": PINNED_STREAM_DRAWS,
            "inv_cdf_module": inv_cdf_module,
        }

    def test_the_lattice_covers_every_branch(self):
        us = [k * 2.0**-53 for k, _, _ in PINNED_DRAWS]
        assert us[0] == 2.0**-53 and us[-1] == 1.0 - 2.0**-53
        assert sum(u < math.exp(-25.0) for u in us) == 4
        central = [abs(u - 0.5) <= 0.425 for u in us]
        assert sum(central) == 5
        # the edges: each central run is flanked by a tail point one k away
        edges = [i for i in range(1, len(us)) if central[i] != central[i - 1]]
        assert [PINNED_DRAWS[i][0] - PINNED_DRAWS[i - 1][0] for i in edges] == [1, 1]

    def test_c_accelerator_gives_the_pinned_bits(self):
        assert pinned_draw_bits() == self.expected("_statistics")

    def test_pure_python_fallback_gives_the_pinned_bits(self):
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPATH": str(Path(tailquant.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", _FALLBACK_CHILD, __file__],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        )
        assert json.loads(proc.stdout) == self.expected("statistics")
