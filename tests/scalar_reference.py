"""Scalar references for the array kernels, kept bit for bit as the package once ran them.

`scalar_incomplete_beta` evaluates I_x(a, b) one point at a time with a
Python-float modified-Lentz continued fraction, and `walk_window` builds the
bootstrap weight window by walking the Beta CDF cell by cell from rank r.
`special_functions.incomplete_beta_cells` and `bootstrap._window_weights`
must reproduce both exactly; the tests compare bytes.
"""

from __future__ import annotations

import math

import numpy as np

import tailquant.special_functions as sf
from tailquant.bootstrap import _MASS_FLOOR
from tailquant.errors import NoConvergence


def scalar_incomplete_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b) for a trusted x in [0, 1] and shapes a, b > 0."""
    a, b = float(a), float(b)
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_pre = a * math.log(x) + b * math.log1p(-x) - sf.log_beta(a, b)
    direct = x < (a + 1.0) / (a + b + 2.0)
    if log_pre < sf._LOG_UNDERFLOW:
        return 0.0 if direct else 1.0
    if direct:
        return math.exp(log_pre) * scalar_beta_cf(a, b, x) / a
    return 1.0 - math.exp(log_pre) * scalar_beta_cf(b, a, 1.0 - x) / b


def scalar_beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz scheme."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < sf._FPMIN:
        d = sf._FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, sf.CF_MAX_ITER + 1):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < sf._FPMIN:
            d = sf._FPMIN
        c = 1.0 + aa / c
        if abs(c) < sf._FPMIN:
            c = sf._FPMIN
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < sf._FPMIN:
            d = sf._FPMIN
        c = 1.0 + aa / c
        if abs(c) < sf._FPMIN:
            c = sf._FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < sf.CF_TOL:
            return h
    raise NoConvergence(
        f"incomplete beta continued fraction did not converge within "
        f"{sf.CF_MAX_ITER} iterations (a={a}, b={b}, x={x})"
    )


def walk_window(n: int, r: int) -> tuple[int, np.ndarray]:
    """(lo, CDF values I_{i/n} for i = lo..hi) of the cell-by-cell walk from r."""

    def cdf(i: int) -> float:
        return scalar_incomplete_beta(i / n, r, n - r + 1)

    lo = hi = r
    lower = [cdf(r)]  # I_{i/n} for i = r, r-1, ..., lo
    while lo > 0 and lower[-1] >= _MASS_FLOOR:
        lo -= 1
        lower.append(cdf(lo))
    upper = []  # I_{i/n} for i = r+1, ..., hi
    top = lower[0]
    while hi < n and 1.0 - top >= _MASS_FLOOR:
        hi += 1
        top = cdf(hi)
        upper.append(top)
    return lo, np.array(lower[::-1] + upper)
