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
n+1 CDF values would give.  The CDF values come from one array evaluation
of a block of cells around r, grown until the walk stops inside it, so the
cost is about 1.3-1.5 times hi - lo array cells instead of n + 1 scalar calls.
The variance needs only x_(lo+1..hi) and x_(r), so `tail_variance`
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

from .errors import DomainError, integer
from .estimators import check_size, observations, quantile_rank, smallest
from .special_functions import incomplete_beta_cells, no_convergence

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
    a, b = float(r), float(n - r + 1)

    def cdf(first: int, last: int) -> np.ndarray:
        """I_{i/n} for i = first..last, NaN where the fraction failed."""
        return incomplete_beta_cells(np.arange(first, last + 1) / n, a, b)

    # The CDF is evaluated on a block of cells, values[i - base] for i in
    # base..top, which a side the walk runs off doubles, and the walk then
    # reads it in its order: a failed cell stops it and raises, and a cell
    # it does not reach cannot raise.  The first block reaches 9*isqrt(r) + 40
    # cells either side of r.  Below r the binomial Chernoff bound
    # exp(-t^2 / 2r) puts the CDF under 1e-17 there; on either side no
    # window has needed more than 0.87 of it, over every r of every
    # n <= 2000 and every (n, r) of the benchmark's estimate inputs, so the
    # doubling is a safeguard that no input tried has reached.
    step = 9 * math.isqrt(r) + 40
    base, top = max(0, r - step), min(n, r + step)
    values = cdf(base, top)
    while True:  # down from r: lo is the first cell with I < floor, or 0
        down = values[r - base :: -1]
        stops = np.flatnonzero((down < _MASS_FLOOR) | np.isnan(down))
        if stops.size:
            break
        grown = max(0, 2 * base - r)
        values, base = np.concatenate([cdf(grown, base - 1), values]), grown
    lo = r - int(stops[0])
    if math.isnan(values[lo - base]):
        raise no_convergence(lo / n, a, b)
    while True:  # up from r: hi is the first cell with 1 - I < floor, or n
        up = values[r - base :]
        stops = np.flatnonzero((1.0 - up < _MASS_FLOOR) | np.isnan(up))
        if stops.size:
            break
        grown = min(n, 2 * top - r)
        values, top = np.concatenate([values, cdf(top + 1, grown)]), grown
    hi = r + int(stops[0])
    if math.isnan(values[hi - base]):
        raise no_convergence(hi / n, a, b)
    window = np.diff(values[lo - base : hi - base + 1])
    window[window < _MASS_FLOOR] = 0.0
    window.flags.writeable = False
    return BootstrapWeights(n=n, r=r, lo=lo, window=window)


def bootstrap_weights(n: int, r: int) -> BootstrapWeights:
    """Exact infinite-resample weights w_1..w_n for the rank-r order statistic."""
    n, rank = check_size(n), integer(r)
    if isinstance(rank, float):
        raise DomainError(f"rank must be an integer, got {r!r}")
    if not 1 <= rank <= n:
        raise DomainError(f"rank must lie in 1..{n}, got {r}")
    return _window_weights(n, rank)


def bootstrap_variance(values, p: float) -> float:
    """Analytic bootstrap variance of the sample p-quantile, r = floor(n*p), from values in any order.

    Raises InsufficientSamples when r would be zero; see `tail_variance`.
    """
    values = observations(values)
    weights = bootstrap_weights(values.size, quantile_rank(values.size, p))
    return tail_variance(smallest(values, weights.hi), weights)


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
