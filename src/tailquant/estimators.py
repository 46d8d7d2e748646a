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

from .errors import DomainError, InsufficientSamples, RankOutOfRange

__all__ = [
    "ProbabilityLevel",
    "Sample",
    "SortedSample",
    "QuantileEstimate",
    "sort_ascending",
    "order_statistic",
    "sample_quantile",
    "quantile_rank",
    "min_sample_size",
]


@dataclass(frozen=True)
class ProbabilityLevel:
    """A probability level p strictly inside (0, 1)."""

    p: float

    def __post_init__(self):
        if not (isinstance(self.p, (int, float)) and 0.0 < self.p < 1.0):
            raise DomainError(f"probability level must satisfy 0 < p < 1, got {self.p!r}")
        object.__setattr__(self, "p", float(self.p))


def _as_level(p: float | ProbabilityLevel) -> ProbabilityLevel:
    return p if isinstance(p, ProbabilityLevel) else ProbabilityLevel(p)


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
    p: ProbabilityLevel
    n: int

    def __post_init__(self):
        if not 1 <= self.rank <= self.n:
            raise DomainError(f"rank must lie in 1..{self.n}, got {self.rank}")


def sort_ascending(sample: Sample) -> SortedSample:
    """Sort a sample into ascending order."""
    return SortedSample(np.sort(sample.values))


def order_statistic(sorted_sample: SortedSample, rank: int) -> float:
    """The rank-th smallest observation, one-based.

    Rank 0 is rejected: with no observation below the minimum, the sample
    carries no information there.
    """
    n = sorted_sample.n
    if not 1 <= rank <= n:
        raise RankOutOfRange(f"order-statistic rank must lie in 1..{n}, got {rank}")
    return float(sorted_sample.values[rank - 1])


def quantile_rank(n: int, p: float | ProbabilityLevel) -> int:
    """One-based rank floor(n*p) of the sample quantile; raises when it is zero."""
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n!r}")
    level = _as_level(p)
    r = math.floor(n * level.p)
    if r < 1:
        raise InsufficientSamples(level.p, n, min_sample_size(level))
    return r


def min_sample_size(p: float | ProbabilityLevel) -> int:
    """Smallest n for which floor(n*p) >= 1 under the exact floating-point rule."""
    level = _as_level(p)
    n = max(1, math.ceil(1.0 / level.p))
    while math.floor(n * level.p) < 1:
        n += 1
    while n > 1 and math.floor((n - 1) * level.p) >= 1:
        n -= 1
    return n


def sample_quantile(
    sample: Sample | SortedSample, p: float | ProbabilityLevel
) -> QuantileEstimate:
    """Order-statistic estimate of the p-quantile: x_(r) with r = floor(n*p)."""
    level = _as_level(p)
    if isinstance(sample, Sample):
        sample = sort_ascending(sample)
    r = quantile_rank(sample.n, level)
    return QuantileEstimate(
        value=order_statistic(sample, r), rank=r, p=level, n=sample.n
    )
