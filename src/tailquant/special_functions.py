"""The Beta log-density constant of the bootstrap weights.

The bootstrap weights of `bootstrap` are masses of the Beta(r, n-r+1)
density f.  `log_beta_density` gives log f(r/n), the constant that the weight
kernel scales every cell by, in Loader's saddle-point form: f(x) equals
n * dbinom(r-1; n-1, x), and Loader (2000, "Fast and Accurate Computation of
Binomial Probabilities") writes dbinom through the Stirling-series error
`_stirlerr` and the deviance term `_bd0`, so no log-gamma of size n*log(n)
is formed and differenced.
"""

from __future__ import annotations

import math

__all__ = ["log_beta_density"]

_LN_2PI = math.log(2.0 * math.pi)

# Stirling series coefficients 1/12, 1/360, 1/1260, 1/1680, 1/1188
_STIRLING = (1.0 / 12.0, 1.0 / 360.0, 1.0 / 1260.0, 1.0 / 1680.0, 1.0 / 1188.0)


def _stirlerr(k: int) -> float:
    """log(k!) - log(sqrt(2 pi k) (k/e)^k), the error of Stirling's formula; 0 at k = 0."""
    if k == 0:
        return 0.0
    if k <= 15:
        return math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - 0.5 * _LN_2PI
    # the series, cut where its next term is below 1e-17 (Loader's cutoffs)
    terms = 2 if k > 500 else 3 if k > 80 else 4 if k > 35 else 5
    kk, s = float(k) * k, 0.0
    for c in reversed(_STIRLING[:terms]):
        s = c - s / kk
    return s / k


def _bd0(x: float, m: float) -> float:
    """x*log(x/m) + m - x, by its series in (x-m)/(x+m) where the terms would cancel."""
    if abs(x - m) < 0.1 * (x + m):
        v = (x - m) / (x + m)
        s, ej, j = (x - m) * v, 2.0 * x * v, 1
        while True:
            ej *= v * v
            j += 2
            term = s + ej / j
            if term == s:
                return s
            s = term
    return (x * math.log(x / m) if x else 0.0) + m - x


def log_beta_density(n: int, r: int) -> float:
    """log f(r/n) for the Beta(r, n-r+1) density f and integers 1 <= r <= n.

    f(r/n) = n * dbinom(k; m, r/n) with k = r-1 and m = n-1, and Loader's
    form of dbinom is exp(stirlerr(m) - stirlerr(k) - stirlerr(m-k)
    - bd0(k, m*r/n) - bd0(m-k, m*(n-r)/n)) / sqrt(2 pi k (m-k) / m), whose
    square root is dropped at k = 0 and k = m, where the binomial mass is a
    single power.
    """
    m, k = n - 1, r - 1
    value = (
        math.log(n) + _stirlerr(m) - _stirlerr(k) - _stirlerr(m - k)
        - _bd0(k, m * r / n) - _bd0(m - k, m * (n - r) / n)
    )
    if 0 < k < m:
        value -= 0.5 * (_LN_2PI + math.log(k * (m - k) / m))
    return value
