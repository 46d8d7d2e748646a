"""Exception types shared across the package, and the readers of outside scalars."""

import math

import numpy as np

_REALS = (float, int, np.floating, np.integer)
_INTEGERS = (int, np.integer)


def real(value) -> float:
    """``float(value)`` for a Python or numpy real, else NaN, which fails every range check."""
    return float(value) if isinstance(value, _REALS) else math.nan


def integer(value) -> int | float:
    """``int(value)`` for a Python or numpy integer, else NaN."""
    return int(value) if isinstance(value, _INTEGERS) else math.nan


class TailquantError(Exception):
    """Base class for all tailquant errors."""


class DomainError(TailquantError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InsufficientSamples(TailquantError):
    """The sample is too small to resolve the requested probability level.

    Raised when the order-statistic rank floor(n*p) is zero; carries the
    smallest sample size that would make the rank positive, or None when no
    sample size does (1/p overflows).
    """

    def __init__(self, p: float, n: int, needed: int | None):
        self.p = p
        self.n = n
        self.needed = needed
        need = "no n can" if needed is None else f"need n >= {needed} to"
        super().__init__(f"insufficient samples: {need} resolve p = {p:g} (got n = {n})")


class ConfigError(TailquantError, ValueError):
    """An experiment configuration is invalid."""


class EmptyInput(TailquantError, ValueError):
    """An aggregate was requested over an empty collection."""
