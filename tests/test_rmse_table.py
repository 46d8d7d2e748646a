"""The sample sizes of the README's RMSE table, re-checked against the exact oracle."""

import itertools

import pytest

from rmse_table import EPSILON, SIGMA2, grid, rmse


@pytest.mark.parametrize(
    "p,sigma2,n", [(0.01, None, 2_759), (0.01, SIGMA2, 1_609), (0.001, None, 29_290), (0.001, SIGMA2, 17_121)]
)
def test_first_n_on_the_grid_reaching_the_target(p, sigma2, n):
    below = list(itertools.takewhile(lambda m: m < n, grid(p)))
    assert next(m for m in grid(p) if m >= n) == n
    assert rmse(p, n, sigma2) <= EPSILON < rmse(p, below[-1], sigma2)
