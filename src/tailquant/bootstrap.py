"""Closed-form bootstrap variance of the rank-r sample quantile.

Resampling n observations with replacement and taking the r-th order
statistic always lands on one of the original observations; in the limit of
infinitely many resamples the probability of landing on x_(i) has the exact
closed form

    w_i = r * C(n, r) * integral over ((i-1)/n, i/n] of y^(r-1) (1-y)^(n-r) dy
        = I_{i/n}(r, n-r+1) - I_{(i-1)/n}(r, n-r+1),

using r * C(n, r) = 1 / B(r, n-r+1) (Maritz & Jarrett 1978; Hutson & Ernst
2000, "The exact bootstrap mean and variance of an L-estimator", JRSS-B).
The variance estimate is the weighted second moment of the sample about
x_(r).

The weights are increments of the Beta(r, n-r+1) CDF, whose mass sits in a
window of about r +/- c*sqrt(r) cells, so the CDF is evaluated only there.
Starting at CDF index r, the walk goes down until I_{lo/n} < _MASS_FLOOR
(or lo = 0) and up until 1 - I_{hi/n} < _MASS_FLOOR (or hi = n).  Every
cell outside (lo, hi] then has an increment below the floor, which the
weights zero anyway, so the window holds exactly the weights a pass over all
n+1 CDF values would give, at a cost of hi - lo + 1 evaluations instead of
n + 1.  The variance needs only x_(lo+1..hi) and x_(r), so `tail_variance`
takes any ascending array that holds at least x_(1..hi): a simulation trial
draws only those lowest order statistics, and `bootstrap_variance` passes a
whole sorted sample.

Weights depend only on (n, r), so they are memoized; the cache is a
transparent, idempotent memo and cannot change results.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RankOutOfRange
from .estimators import SortedSample, quantile_rank
from .special_functions import regularized_incomplete_beta

__all__ = [
    "BootstrapWeights",
    "bootstrap_weights",
    "bootstrap_variance",
    "tail_variance",
]

# Adjacent CDF values that agree to below this level carry no resolvable
# probability mass; their difference is pure cancellation noise.
_MASS_FLOOR = 1e-15

_WEIGHT_SUM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class BootstrapWeights:
    """Resampling probabilities of the rank-r order statistic landing on each cell.

    Only the one-based cells lo+1..hi can carry mass: ``window`` holds their
    weights, and every other cell's weight is exactly 0.
    """

    n: int
    r: int
    lo: int
    window: np.ndarray

    def __post_init__(self):
        if self.window.ndim != 1 or not 0 <= self.lo < self.hi <= self.n:
            raise ValueError(
                f"a window of {self.window.shape} weights from cell {self.lo + 1} "
                f"does not fit in {self.n} cells"
            )
        if np.any(self.window < 0.0):
            raise ValueError("bootstrap weights must be non-negative")
        total = float(np.sum(self.window))
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"bootstrap weights sum to {total!r}, expected 1")

    @property
    def hi(self) -> int:
        return self.lo + self.window.size

    @functools.cached_property
    def w(self) -> np.ndarray:
        """All n weights w_1..w_n, zero outside the window."""
        w = np.zeros(self.n)
        w[self.lo : self.hi] = self.window
        w.flags.writeable = False
        return w


@functools.lru_cache(maxsize=16)
def _window_weights(n: int, r: int) -> BootstrapWeights:
    def cdf(i: int) -> float:
        return regularized_incomplete_beta(i / n, r, n - r + 1)

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
    window = np.diff(np.array(lower[::-1] + upper))
    window[window < _MASS_FLOOR] = 0.0
    window.flags.writeable = False
    return BootstrapWeights(n=n, r=r, lo=lo, window=window)


def bootstrap_weights(n: int, r: int) -> BootstrapWeights:
    """Exact infinite-resample weights w_1..w_n for the rank-r order statistic."""
    if not 1 <= r <= n:
        raise RankOutOfRange(f"rank must lie in 1..{n}, got {r}")
    return _window_weights(n, r)


def bootstrap_variance(sorted_sample: SortedSample, p: float) -> float:
    """Analytic bootstrap variance of the sample p-quantile, r = floor(n*p).

    Raises InsufficientSamples when r would be zero; see `tail_variance`.
    """
    n = sorted_sample.n
    return tail_variance(sorted_sample.values, bootstrap_weights(n, quantile_rank(n, p)))


def tail_variance(tail: np.ndarray, weights: BootstrapWeights) -> float:
    """Weighted second moment about x_(r) of the sorted observations, window only.

    ``tail`` is trusted, not re-validated: an ascending array holding at
    least x_(1..hi) of the n observations the weights were built for.  Cells
    whose weight is 0 contribute exactly 0, even where their squared
    deviation overflows.  Raises DomainError when the weighted moment itself
    is not finite; otherwise the result is >= 0.
    """
    window = weights.window
    with np.errstate(over="ignore", invalid="ignore"):
        dev = tail[weights.lo : weights.hi] - tail[weights.r - 1]
        value = float(np.dot(np.where(window > 0.0, dev * dev, 0.0), window))
    if not math.isfinite(value):
        raise DomainError(
            f"bootstrap variance is not finite ({value!r}): "
            "squared deviations from the sample quantile overflow"
        )
    return max(value, 0.0)
