"""The check of outside observations, order statistics, and the rank-based sample quantile.

A quantile at probability level p is estimated by the order statistic at
one-based rank r = floor(n*p).  The floor is taken on the product exactly as
represented in floating point; there is no epsilon nudging, so tie cases
behave identically everywhere in the package.

Estimates read only the lowest order statistics, x_(1..r) or x_(1..hi) up to
the top of the bootstrap weight window; `smallest`, which selects and sorts
just those, is the one place where the package orders observations.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InsufficientSamples, integer, real

__all__ = [
    "observations",
    "smallest",
    "check_p",
    "sample_quantile",
    "quantile_rank",
    "min_sample_size",
]

_MAX_SIZE = int(np.iinfo(np.intp).max)  # numpy holds an array length in an intp


def check_p(p: float) -> float:
    """The probability level p as a float; raises unless 0 < p < 1."""
    level = real(p)
    if not 0.0 < level < 1.0:
        raise DomainError(f"probability level must satisfy 0 < p < 1, got {p!r}")
    return level


def observations(values) -> np.ndarray:
    """Outside observations as a float64 array; raises unless 1-D, non-empty and finite."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DomainError(f"observations must be one-dimensional, got shape {arr.shape}")
    if arr.size < 1:
        raise DomainError("a sample needs at least one observation")
    if not np.all(np.isfinite(arr)):
        raise DomainError("observations must all be finite (no NaN or infinity)")
    return arr


def smallest(values: np.ndarray, k: int) -> np.ndarray:
    """The k lowest of trusted values, of each row of a stack, ascending, 1 <= k <= n.

    An O(n) select, then a sort of k."""
    return np.sort(np.partition(values, k - 1)[..., :k])


def check_size(n: int) -> int:
    """The sample size n as an int; raises unless it is an integer in 1.._MAX_SIZE."""
    size = integer(n)
    if isinstance(size, float):
        raise DomainError(f"sample size must be an integer >= 1, got {n!r}")
    if size < 1:
        raise DomainError(f"sample size must be >= 1, got {n!r}")
    if size > _MAX_SIZE:
        bits = size.bit_length()  # its digits may run to thousands
        raise DomainError(f"sample size must be at most {_MAX_SIZE}, got a {bits}-bit integer")
    return size


def quantile_rank(n: int, p: float) -> int:
    """One-based rank floor(n*p) of the sample quantile; raises when it is zero."""
    n = check_size(n)
    p = check_p(p)
    r = math.floor(n * p)
    if r < 1:
        try:
            needed = min_sample_size(p)
        except DomainError:
            needed = None
        raise InsufficientSamples(p, n, needed)
    return r


def min_sample_size(p: float) -> int:
    """Smallest n for which floor(n*p) >= 1 under the exact floating-point rule, by bisection.

    Raises DomainError when 1/p overflows (p < ~5.6e-309): then no n resolves p.
    """
    p = check_p(p)
    try:
        hi = max(1, math.ceil(1.0 / p))
    except OverflowError:
        raise DomainError(f"no sample size resolves p = {p:g}: 1/p overflows") from None
    while math.floor(hi * p) < 1:
        # one float spacing or more: the rounded 1/p may lie just below the edge
        hi += max(1, hi >> 52)
    lo = 0  # floor(0 * p) = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if math.floor(mid * p) >= 1:
            hi = mid
        else:
            lo = mid
    return hi


def sample_quantile(values, p: float) -> float:
    """Order-statistic estimate of the p-quantile, x_(r) with r = floor(n*p), from values in any order."""
    values = observations(values)
    r = quantile_rank(values.size, p)
    return float(smallest(values, r)[-1])
