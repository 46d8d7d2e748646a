"""The `bayes_bootstrap` RMSE of the simulation study against a reference that does not depend on its draw stream.

`bayes_bootstrap` has no closed form, so its reference is a Monte Carlo
average that integrates out what does have one (Rao-Blackwellisation;
Casella & Robert 1996, Biometrika 83, 81-94), drawn with numpy's own
generator rather than the package's streams.

The error of every method is shift invariant, so take x_p = 0: the model
is then exponential with rate L = -log1p(-p) on the log scale.  By Renyi
(1953) the lowest hi order statistics of n draws are

    X_(i) = log(sum_{j <= i} Z_j / (L * (n - j + 1))),  Z_j iid Exp(1),

which costs O(hi) per row instead of O(n).  From one row take e = X_(r), the
bootstrap variance sn2 of the row and the prior weight w = sn2 / (s2 + sn2).
The estimate is w * mu + (1 - w) * x_(r) and the truth is mu + d with the
prior error d ~ N(0, s2) independent of the row, so the squared error is
((1 - w) * e - w * d)^2, and its mean over d is

    (1 - w)^2 * e^2 + w^2 * s2.

The reference MSE is the average of that over M rows.  The simulated MSE of
`trials` trials has the standard error sd / sqrt(trials), where sd is the
standard deviation of one trial's squared error, estimated from the same
rows with a drawn d.  z is the simulated MSE minus the reference, over the
two standard errors combined.
"""

import math

import numpy as np
import pytest

from tailquant.bootstrap import bootstrap_weights
from tailquant.estimators import quantile_rank
from tailquant.experiment import ExperimentConfig, Method, run_experiment

SEED = 20251020
TRIALS = 1000
ROWS = 100_000
# |z| bound, set once
Z_BOUND = 4.0
# (p, n) cells: r = 1 at (0.01, 100) and (0.001, 1000), up to n = 1e5
CELLS = [(0.01, 100), (0.001, 1000), (0.01, 1000), (0.01, 20_000), (0.001, 100_000)]
PRIOR_VARIANCES = (1.0, 0.01)
# Renyi values per chunk of rows: 16 MB per float64 array
CHUNK_VALUES = 2**21


def renyi_rows(p: float, n: int, rows: int, rng: np.random.Generator):
    """e = X_(r) and the bootstrap variance sn2 of ``rows`` Renyi rows with x_p = 0."""
    r = quantile_rank(n, p)
    weights = bootstrap_weights(n, r)
    scale = 1.0 / (-math.log1p(-p) * (n - np.arange(weights.hi)))
    per_chunk = max(1, CHUNK_VALUES // weights.hi)
    e, sn2 = [], []
    for start in range(0, rows, per_chunk):
        z = rng.standard_exponential((min(per_chunk, rows - start), weights.hi))
        x = np.log(np.cumsum(z * scale, axis=1))
        dev = x[:, weights.lo :] - x[:, r - 1 : r]
        e.append(x[:, r - 1].copy())  # a view would keep the whole chunk alive
        sn2.append(np.square(dev) @ weights.window)
    return np.concatenate(e), np.concatenate(sn2)


@pytest.fixture(scope="module")
def reference():
    """(reference MSE, its standard error, sd of one trial's squared error) per (p, n, s2)."""
    rng = np.random.default_rng(SEED)
    out = {}
    for p, n in CELLS:
        e, sn2 = renyi_rows(p, n, ROWS, rng)
        for s2 in PRIOR_VARIANCES:
            w = sn2 / (s2 + sn2)
            expected = (1.0 - w) ** 2 * e**2 + w**2 * s2
            squared = ((1.0 - w) * e - w * rng.normal(0.0, math.sqrt(s2), ROWS)) ** 2
            out[(p, n, s2)] = (expected.mean(), expected.std() / math.sqrt(ROWS), squared.std())
    return out


@pytest.fixture(scope="module")
def simulated():
    rows = []
    for p, n in CELLS:
        config = ExperimentConfig(
            prior_variances=PRIOR_VARIANCES, p_values=(p,), sample_sizes=(n,),
            trials=TRIALS, seed=SEED, methods=(Method.BAYES_BOOTSTRAP,),
        )
        rows.extend(run_experiment(config).rows)
    return {(row.p, row.n, row.sigma2): row.rmse for row in rows}


def test_the_grid_covers_rank_one_and_the_largest_size():
    assert min(quantile_rank(n, p) for p, n in CELLS) == 1
    assert max(n for _, n in CELLS) == 100_000


@pytest.mark.parametrize("sigma2", PRIOR_VARIANCES)
@pytest.mark.parametrize("p,n", CELLS)
def test_simulated_bayes_bootstrap_mse_matches_reference(reference, simulated, p, n, sigma2):
    mse, mse_se, sd = reference[(p, n, sigma2)]
    sim = simulated[(p, n, sigma2)] ** 2
    z = (sim - mse) / math.sqrt(sd**2 / TRIALS + mse_se**2)
    assert abs(z) <= Z_BOUND, f"simulated MSE {sim:.6g} against reference {mse:.6g}, z = {z:+.2f}"
