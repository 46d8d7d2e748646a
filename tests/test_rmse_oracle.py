"""The simulation study against its exact finite-n RMSE, a check that does not depend on the draw stream.

Under the log-exponential model the error of the sample quantile does not
depend on the rate: with U ~ Beta(r, n-r+1) the r-th uniform order statistic
and L = -log1p(-p),

    x_(r) - x_p = log(-log1p(-U) / L),

so the `sample` MSE is E[e^2], a 1-D integral over Beta(r, n-r+1).  The
density at the quantile is L*(1-p) for every x_p, so `bayes_known` uses one
variance sigma_n^2 = p / (n * L^2 * (1-p)) per cell, and its prior weight
w = sigma_n^2 / (sigma^2 + sigma_n^2).  The prior error mu - x_p ~ N(0, sigma^2)
is independent of e and has mean 0, so the `bayes_known` MSE is exactly
w^2 * sigma^2 + (1-w)^2 * E[e^2].

`bayes_bootstrap` has no closed form.  Its check is shift invariance: the
trial streams do not depend on `prior_mean`, and shifting it shifts x_p, the
sample and every estimate alike, so every RMSE column must stay put.
"""

import math

import pytest
from scipy import integrate
from scipy.stats import beta

from tailquant.experiment import ALL_METHODS, ExperimentConfig, Method, run_experiment

SEED = 20250809
TRIALS = 2000
# |z| bound, set once: z is the RMSE error in units of its standard error
Z_BOUND = 4.0
# (p, n) cells; at (0.01, 200), where r = 2, the exact sample RMSE is 0.848
# and the asymptotic sqrt(sigma_n^2) only 0.707, so the asymptotic formula
# would fail the bound there
CELLS = [(p, n) for p in (0.01, 0.001) for n in (1000, 5000)] + [(0.01, 200)]
PRIOR_VARIANCES = (1.0, 0.01)


def sample_mse(p: float, n: int) -> float:
    """E[log(-log1p(-U)/L)^2] for U ~ Beta(r, n-r+1), by adaptive quadrature."""
    r = math.floor(n * p)
    law = beta(r, n - r + 1)
    big_l = -math.log1p(-p)

    def integrand(u):
        return math.log(-math.log1p(-u) / big_l) ** 2 * law.pdf(u)

    # the mass outside [ppf(1e-14), isf(1e-14)] adds below 1e-10 to E[e^2]
    lo, hi = law.ppf(1e-14), law.isf(1e-14)
    value, _ = integrate.quad(
        integrand, lo, hi, points=[(r - 1) / (n - 1)] if r > 1 else None,
        epsabs=0.0, epsrel=1e-10, limit=200,
    )
    return value


def bayes_known_mse(p: float, n: int, sigma2: float) -> float:
    big_l = -math.log1p(-p)
    sn2 = p / (n * big_l * big_l * (1.0 - p))
    w = sn2 / (sigma2 + sn2)
    return w * w * sigma2 + (1.0 - w) ** 2 * sample_mse(p, n)


@pytest.fixture(scope="module")
def simulated():
    rows = []
    for p, n in CELLS:
        config = ExperimentConfig(
            prior_variances=PRIOR_VARIANCES, p_values=(p,), sample_sizes=(n,),
            trials=TRIALS, seed=SEED, methods=(Method.SAMPLE, Method.BAYES_KNOWN),
        )
        rows.extend(run_experiment(config).rows)
    return {(row.p, row.n, row.sigma2, row.method): row.rmse for row in rows}


@pytest.mark.parametrize("sigma2", PRIOR_VARIANCES)
@pytest.mark.parametrize("p,n", CELLS)
@pytest.mark.parametrize("method", [Method.SAMPLE, Method.BAYES_KNOWN])
def test_simulated_rmse_matches_exact(simulated, method, p, n, sigma2):
    if method is Method.SAMPLE:
        exact = math.sqrt(sample_mse(p, n))
    else:
        exact = math.sqrt(bayes_known_mse(p, n, sigma2))
    sim = simulated[(p, n, sigma2, method)]
    z = (sim - exact) / (sim / math.sqrt(2 * TRIALS))
    assert abs(z) <= Z_BOUND, f"simulated {sim:.6g} against exact {exact:.6g}, z = {z:+.2f}"


def test_every_rmse_column_is_shift_invariant():
    def table(prior_mean):
        config = ExperimentConfig(
            prior_mean=prior_mean, prior_variances=PRIOR_VARIANCES, p_values=(0.01,),
            sample_sizes=(200, 1000, 5000), trials=200, seed=SEED, methods=ALL_METHODS,
        )
        return run_experiment(config).rows

    for base, shifted in zip(table(0.0), table(5.0)):
        assert (base.p, base.n, base.sigma2, base.method) == (
            shifted.p, shifted.n, shifted.sigma2, shifted.method)
        assert shifted.rmse == pytest.approx(base.rmse, rel=1e-12, abs=0.0)
