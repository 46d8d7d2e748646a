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

Each weight is the mass of the Beta(r, n-r+1) density f over its cell, an
8-point Gauss-Legendre sum, which is exact to rounding because f is smooth
on a cell of width 1/n.  f is taken relative to f(r/n), and the block's
masses are divided by their own sum, so the constant f(r/n) cancels and is
never computed.  The true masses sum to exactly 1 over cells 1..n and the
block misses less than 2 * 2.6e-18 of that, so a normalised weight is its
true mass times 1/(1 - eps), eps below a twentieth of a rounding unit.

The mass sits in a window of about r +/- c*sqrt(r) cells, so only one block
of cells, r +/- (9*isqrt(r) + 40), is evaluated, in one array.  Starting at
CDF index r, the walk goes down until I_{lo/n} < _MASS_FLOOR (or lo = 0)
and up until 1 - I_{hi/n} < _MASS_FLOOR (or hi = n), and two tail bounds
put both stops inside the block (see `_window_weights`).  Every cell
outside (lo, hi] then has a mass below the floor, which the weights zero
anyway, so the cost grows with r, not with n.
The variance needs only x_(lo+1..hi) and x_(r), so `tail_variance`
takes any ascending array that holds at least x_(1..hi): a simulation cell
passes the lowest order statistics of all its trials as one block of rows,
and `bootstrap_variance` the lowest of one sample.

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

__all__ = [
    "BootstrapWeights",
    "bootstrap_weights",
    "bootstrap_variance",
    "tail_variance",
]

# A cell mass below this level is set to 0, and the window ends where the
# mass beyond it falls below it.
_MASS_FLOOR = 1e-15

_WEIGHT_SUM_TOL = 1e-10

# 8-point Gauss-Legendre rule on [-1, 1], numpy.polynomial.legendre.leggauss(8)
_GL_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362,
])
_GL_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706,
])


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


def _cell_masses(n: int, r: int, first: int, last: int) -> np.ndarray:
    """The masses of the Beta(r, n-r+1) density f over cells first..last, ((i-1)/n, i/n].

    With u = n*x - r, log(f(x)/f(r/n)) = (r-1)*log1p(u/r)
    + (n-r)*log1p(-u/(n-r)); a term whose coefficient is 0 is dropped, so
    r = 1, r = n and n = 1 need no special case.  The masses are in units
    of f(r/n)/(2n), which `_window_weights` cancels by normalising the block.
    """
    u = (np.arange(first, last + 1) - (r + 0.5))[:, None] + _GL_NODES / 2.0
    log_f = np.zeros(u.shape)
    if r > 1:
        log_f += (r - 1) * np.log1p(u / r)
    if n > r:
        log_f += (n - r) * np.log1p(-u / (n - r))
    f = np.exp(log_f)
    # symmetric nodes share a weight; a sum in this fixed order gives a cell
    # the same bits in any block, which a BLAS product does not
    pairs = (w * (f[:, k] + f[:, -1 - k]) for k, w in enumerate(_GL_WEIGHTS[:4].tolist()))
    return sum(pairs)


@functools.lru_cache(maxsize=16)
def _window_weights(n: int, r: int) -> BootstrapWeights:
    # Masses are evaluated on one block of cells base+1..top, s cells either
    # side of r.  At CDF index j, I is the sum of the masses from the block's
    # lower edge and 1 - I the sum to its top edge, so the walk never reads a
    # difference of two numbers near 1.  lo is the first index down from r
    # with I < floor, and hi the first up from r with 1 - I < floor; an edge
    # of the block is a stop only at 0 or n, because the mass beyond it is
    # not in those sums.  The first cell inside an edge holds less mass than
    # the Beta's tail from its inner side, so it is a stop:
    # - below r, Bernstein's inequality gives
    #   P(Bin(n, (r-s+1)/n) >= r) <= exp(-(s-1)^2 / 2r);
    # - above r, the binomial Chernoff bound, with n*KL >= k*log(k/mu) + mu - k,
    #   gives P(Bin(n, (r+s-1)/n) <= r-1) <= exp(-(s - (r-1)*log1p(s/(r-1)))),
    #   exp(-s) at r = 1.  Both exponents are >= 40.5 for every r: a mass
    #   under 2.6e-18, about 400 times below _MASS_FLOOR.  The block so holds
    #   all but 5.2e-18 of the total mass 1, and is normalised to its own sum.
    s = 9 * math.isqrt(r) + 40
    base, top = max(0, r - s), min(n, r + s)
    mass = _cell_masses(n, r, base + 1, top)
    mass /= mass.sum()
    cdf = np.concatenate(([0.0], np.cumsum(mass)))
    tail = np.concatenate((np.cumsum(mass[::-1])[::-1], [0.0]))
    lo = r - int(np.flatnonzero(cdf[r - base : None if base == 0 else 0 : -1] < _MASS_FLOOR)[0])
    hi = r + int(np.flatnonzero(tail[r - base : None if top == n else -1] < _MASS_FLOOR)[0])
    window = mass[lo - base : hi - base]
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
    return float(tail_variance(smallest(values, weights.hi), weights))


def tail_variance(tail: np.ndarray, weights: BootstrapWeights):
    """Weighted second moment about x_(r) of the sorted observations, window only.

    ``tail`` is trusted, not re-validated: an ascending array holding at
    least x_(1..hi) of the n observations the weights were built for, or a
    stack of such rows, which gives one moment per row.  Cells whose weight
    is 0 contribute exactly 0, even where their squared deviation overflows.
    Raises DomainError when a weighted moment itself is not finite;
    otherwise each is >= 0.
    """
    window = weights.window
    with np.errstate(over="ignore", invalid="ignore"):
        dev = tail[..., weights.lo : weights.hi] - tail[..., weights.r - 1 : weights.r]
        squares = np.where(window > 0.0, dev * dev, 0.0)
        # one 1 x m by m x 1 product per row: each is the BLAS dot that
        # np.dot takes on one row, whatever the number of rows; [()] makes
        # the moment of one row a float, not a 0-d array
        value = (squares[..., None, :] @ window[:, None])[..., 0, 0][()]
    if not np.all(np.isfinite(value)):
        raise DomainError(
            f"bootstrap variance is not finite ({float(np.max(value))!r}): "
            "squared deviations from the sample quantile overflow"
        )
    return value
