"""The Beta log-density constant of the bootstrap weights, and the normal quantile.

The bootstrap weights of `bootstrap` are masses of the Beta(r, n-r+1)
density f.  `log_beta_density` gives log f(r/n), the constant that the weight
kernel scales every cell by, in Loader's saddle-point form: f(x) equals
n * dbinom(r-1; n-1, x), and Loader (2000, "Fast and Accurate Computation of
Binomial Probabilities") writes dbinom through the Stirling-series error
`_stirlerr` and the deviance term `_bd0`, so no log-gamma of size n*log(n)
is formed and differenced.  A high-accuracy normal quantile is included for
inverse-CDF sampling.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = ["normal_quantile"]

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


# Wichura's PPND16 rational approximations for the standard normal quantile;
# absolute error is below 1e-13 across (0, 1).
_PPND_A = (
    3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
    1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
    3.3430575583588128105e4, 2.5090809287301226727e3,
)
_PPND_B = (
    1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
    5.3941960214247511077e3, 2.1213794301586595867e4, 3.9307895800092710610e4,
    2.8729085735721942674e4, 5.2264952788528545610e3,
)
_PPND_C = (
    1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
    3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
    2.27238449892691845833e-2, 7.74545014278341407640e-4,
)
_PPND_D = (
    1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
    6.89767334985100004550e-1, 1.48103976427480074590e-1, 1.51986665636164571966e-2,
    5.47593808499534494600e-4, 1.05075007164441684324e-9,
)
_PPND_E = (
    6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
    2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
    2.71155556874348757815e-5, 2.01033439929228813265e-7,
)
_PPND_F = (
    1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
    1.48753612908506148525e-2, 7.86869131145613259100e-4, 1.84631831751005468180e-5,
    1.42151175831644588870e-7, 2.04426310338993978564e-15,
)


def _poly(coeffs, r: float) -> float:
    s = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        s = s * r + c
    return s


def normal_quantile(p: float) -> float:
    """Inverse CDF of the standard normal distribution on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"normal_quantile requires 0 < p < 1, got {p!r}")
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        return q * _poly(_PPND_A, r) / _poly(_PPND_B, r)
    r = p if q < 0.0 else 1.0 - p
    r = math.sqrt(-math.log(r))
    if r <= 5.0:
        r -= 1.6
        val = _poly(_PPND_C, r) / _poly(_PPND_D, r)
    else:
        r -= 5.0
        val = _poly(_PPND_E, r) / _poly(_PPND_F, r)
    return -val if q < 0.0 else val
