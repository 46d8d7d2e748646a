"""Sample containers, order statistics, and the rank-based sample quantile.

A quantile at probability level p is estimated by the order statistic at
one-based rank r = floor(n*p).  The floor is taken on the product exactly as
represented in floating point; there is no epsilon nudging, so tie cases
behave identically everywhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientSamples, real

__all__ = [
    "Sample",
    "SortedSample",
    "QuantileEstimate",
    "check_p",
    "sort_ascending",
    "sample_quantile",
    "quantile_rank",
    "min_sample_size",
]


def check_p(p: float) -> float:
    """The probability level p as a float; raises unless 0 < p < 1."""
    level = real(p)
    if not 0.0 < level < 1.0:
        raise DomainError(f"probability level must satisfy 0 < p < 1, got {p!r}")
    return level


def _as_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DomainError(f"observations must be one-dimensional, got shape {arr.shape}")
    if arr.size < 1:
        raise DomainError("a sample needs at least one observation")
    if not np.all(np.isfinite(arr)):
        raise DomainError("observations must all be finite (no NaN or infinity)")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Sample:
    """Unordered finite real observations."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_array(self.values))

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True, eq=False)
class SortedSample:
    """Observations in ascending order; substrate for order statistics."""

    values: np.ndarray

    def __post_init__(self):
        arr = _as_array(self.values)
        if np.any(arr[1:] < arr[:-1]):
            raise DomainError("values are not in ascending order; use sort_ascending")
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class QuantileEstimate:
    """An order-statistic quantile estimate together with its rank metadata."""

    value: float
    rank: int
    p: float
    n: int

    def __post_init__(self):
        if not 1 <= self.rank <= self.n:
            raise DomainError(f"rank must lie in 1..{self.n}, got {self.rank}")


def sort_ascending(sample: Sample) -> SortedSample:
    """Sort a sample into ascending order."""
    return SortedSample(np.sort(sample.values))


def quantile_rank(n: int, p: float) -> int:
    """One-based rank floor(n*p) of the sample quantile; raises when it is zero."""
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n!r}")
    p = check_p(p)
    r = math.floor(n * p)
    if r < 1:
        raise InsufficientSamples(p, n, min_sample_size(p))
    return r


def min_sample_size(p: float) -> int:
    """Smallest n for which floor(n*p) >= 1 under the exact floating-point rule."""
    p = check_p(p)
    n = max(1, math.ceil(1.0 / p))
    while math.floor(n * p) < 1:
        n += 1
    while n > 1 and math.floor((n - 1) * p) >= 1:
        n -= 1
    return n


def sample_quantile(sample: Sample | SortedSample, p: float) -> QuantileEstimate:
    """Order-statistic estimate of the p-quantile: x_(r) with r = floor(n*p)."""
    p = check_p(p)
    if isinstance(sample, Sample):
        sample = sort_ascending(sample)
    r = quantile_rank(sample.n, p)
    return QuantileEstimate(value=float(sample.values[r - 1]), rank=r, p=p, n=sample.n)
