"""The smallest sample size that reaches a target RMSE, with and without a prior, from the exact oracle.

For each p, walks a 5% grid of n upward from the smallest usable n,
n -> floor(1.05 * n) + 1, and reports the first n whose exact RMSE (from
`test_rmse_oracle`, no simulation) is at most EPSILON: for the sample
quantile, and for the Bayesian estimate with a known variance and a prior of
variance SIGMA2.  The RMSE is a sawtooth in n, because the rank floor(n*p)
moves in steps, so a finer grid can find a smaller n.  The ratio column is
the exact sample RMSE over the asymptotic sqrt(sigma_n^2) at the first n.
It grows as the rank falls: at (p, n) = (0.01, 200), where the rank is 2,
it is 0.848 / 0.707.

Run from the repository root, with the package importable:

    PYTHONPATH=src python tests/rmse_table.py
"""

from __future__ import annotations

import math

from tailquant.estimators import min_sample_size
from test_rmse_oracle import bayes_known_mse, sample_mse

P_VALUES = (0.01, 0.001)
EPSILON = 0.2
SIGMA2 = 0.1


def grid(p: float):
    """The 5% grid of sample sizes for p, from the smallest n with floor(n*p) >= 1."""
    n = min_sample_size(p)
    while True:
        yield n
        n = math.floor(1.05 * n) + 1


def rmse(p: float, n: int, sigma2: float | None = None) -> float:
    """Exact RMSE of the sample quantile, or of the known-variance Bayesian estimate."""
    return math.sqrt(sample_mse(p, n) if sigma2 is None else bayes_known_mse(p, n, sigma2))


def first_n(p: float, sigma2: float | None = None) -> int:
    return next(n for n in grid(p) if rmse(p, n, sigma2) <= EPSILON)


def asymptotic_rmse(p: float, n: int) -> float:
    """sqrt(sigma_n^2), sigma_n^2 = p / (n * L^2 * (1-p)), the paper's asymptotic variance."""
    big_l = -math.log1p(-p)
    return math.sqrt(p / (n * big_l * big_l * (1.0 - p)))


def main() -> None:
    print(f"| p | n for RMSE <= {EPSILON}, no prior | exact / asymptotic RMSE there "
          f"| n for RMSE <= {EPSILON}, sigma^2 = {SIGMA2} |")
    print("|---|---|---|---|")
    for p in P_VALUES:
        bare, fused = first_n(p), first_n(p, SIGMA2)
        ratio = rmse(p, bare) / asymptotic_rmse(p, bare)
        print(f"| {p:g} | {bare:,} | {ratio:.3f} | {fused:,} |")


if __name__ == "__main__":
    main()
