"""The log-exponential test distribution and reproducible RNG streams.

X = log(Y) with Y exponential(rate) has cdf 1 - exp(-rate * e^x) on the whole
real line and a heavy lower tail, which makes it a convenient stress model
for low-quantile estimation.  `rate_for_quantile` calibrates the rate so a
chosen point is exactly the p-quantile.

All sampling is inverse-CDF on uniforms drawn from the open interval (0, 1),
so every draw is finite and every draw sequence is a pure function of
(seed, stream path).  The uniforms are u = k * 2^-53 for exact integers k in
1..2^53-1 (a 53-bit lattice that excludes both endpoints).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, integer, real
from .estimators import check_p, check_size

__all__ = [
    "RngStream",
    "LogExponential",
    "rate_for_quantile",
    "asymptotic_variance",
]

_U64_MAX = 2**64


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream: a root seed plus a substream path.

    Identical (seed, path) always yields the identical draw sequence.  Derive
    disjoint substreams with `child`; never share one stream between two
    purposes, since every consumer restarts the stream from its origin.
    """

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        seed, path = integer(self.seed), tuple(map(integer, self.path))
        if not 0 <= seed < _U64_MAX:
            raise DomainError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if not all(i >= 0 for i in path):
            raise DomainError(f"stream path must be non-negative integers, got {self.path!r}")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "path", path)

    def child(self, *indices: int) -> "RngStream":
        """A substream addressed by appending indices to this stream's path."""
        return RngStream(self.seed, self.path + indices)

    def generator(self) -> np.random.Generator:
        """A fresh counter-based generator positioned at this stream's origin."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))


def _lattice(gen: np.random.Generator, size: int | None = None):
    """Integers k in 1..2^53-1; each is the uniform k/2^53 of `_unit`."""
    return gen.integers(1, 2**53, size=size)


def _unit(k):
    # the 53-bit lattice k/2^53: exact, strictly inside (0, 1)
    return k * 2.0**-53


@dataclass(frozen=True)
class LogExponential:
    """X = log(Y) with Y exponentially distributed at the given rate."""

    rate: float

    def __post_init__(self):
        rate = real(self.rate)
        if not (math.isfinite(rate) and rate > 0.0):
            raise DomainError(f"rate must be finite and > 0, got {self.rate!r}")
        object.__setattr__(self, "rate", rate)

    def pdf(self, x: float) -> float:
        """Density rate * exp(x - rate * e^x); underflows to 0 in both tails."""
        x = _finite(x)
        t = self._rate_exp(x)
        if math.isinf(t):
            return 0.0
        try:
            return self.rate * math.exp(x - t)
        except OverflowError:  # e^x overflowed too, and t came from log(rate) + x
            return math.exp(math.log(self.rate) + x - t)

    def cdf(self, x: float) -> float:
        """P(X <= x) = 1 - exp(-rate * e^x), via expm1 for accuracy near 0."""
        return -math.expm1(-self._rate_exp(_finite(x)))

    def _rate_exp(self, x: float) -> float:
        """rate * e^x, inf past the float range; exp(log(rate) + x) where e^x alone overflows."""
        try:
            return self.rate * math.exp(x)
        except OverflowError:
            try:
                return math.exp(math.log(self.rate) + x)
            except OverflowError:
                return math.inf

    def quantile(self, q: float) -> float:
        """Inverse CDF: log(-log(1-q) / rate)."""
        return math.log(-math.log1p(-check_p(q))) - math.log(self.rate)

    def sample(self, n: int, rng: RngStream) -> np.ndarray:
        """n independent inverse-CDF draws, in draw order, deterministic given the stream."""
        n = check_size(n)
        return self._from_lattice(_lattice(rng.generator(), n))

    def _lowest_rows(self, gen: np.random.Generator, rows: int, n: int, k: int, chunk: int):
        """The k lowest of n draws, ascending, in each of `rows` rows of one lattice block.

        Drawn `chunk` rows at a time, with the bits of one draw, and partitioned in place.
        Selecting exact lattice integers does not round, and the transform is increasing
        and elementwise, so these are, bit for bit, the k lowest transformed draws.
        """
        lowest = []
        for first in range(0, rows, chunk):
            block = _lattice(gen, (min(chunk, rows - first), n))
            block.partition(k - 1)
            lowest.append(np.sort(block[:, :k]))
        return self._from_lattice(np.concatenate(lowest))

    def _from_lattice(self, k: np.ndarray) -> np.ndarray:
        # inverse CDF at the lattice uniforms; increasing in k
        return np.log(-np.log1p(-_unit(k))) - math.log(self.rate)


def _finite(x: float) -> float:
    value = real(x)
    if not math.isfinite(value):
        raise DomainError(f"evaluation point must be finite, got {x!r}")
    return value


def rate_for_quantile(x_p: float, p: float) -> LogExponential:
    """The log-exponential model whose p-quantile is exactly x_p.

    Solving 1 - exp(-rate * e^{x_p}) = p gives rate = -log(1-p) * e^{-x_p}.
    Raises DomainError when that rate overflows or underflows to 0 (|x_p| >~ 700).
    """
    p = check_p(p)
    x_p = _finite(x_p)
    try:
        rate = -math.log1p(-p) * math.exp(-x_p)
    except OverflowError:
        rate = math.inf
    if not 0.0 < rate < math.inf:
        raise DomainError(
            f"no log-exponential model has x_p = {x_p!r} as its p = {p!r} "
            f"quantile: the rate {'overflows' if rate else 'underflows to 0'}"
        )
    return LogExponential(rate=rate)


def asymptotic_variance(p: float, n: int, density_at_quantile: float) -> float:
    """Large-n variance p(1-p) / (n * f(x_p)^2) of the sample p-quantile."""
    p = check_p(p)
    n = check_size(n)
    if not (math.isfinite(density_at_quantile) and density_at_quantile > 0.0):
        raise DomainError(
            f"density at the quantile must be finite and > 0, got {density_at_quantile!r}"
        )
    return p * (1.0 - p) / (n * density_at_quantile * density_at_quantile)
