"""Exception types shared across the package, the readers of outside scalars, and `checked`."""

import math

import numpy as np

_REALS = (float, int, np.floating, np.integer)
_INTEGERS = (int, np.integer)
_MAX_SIZE = int(np.iinfo(np.intp).max)  # numpy holds an array length in an intp


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
    sample size does (1/p overflows).  ``need`` names that size, or is None:
    past the largest array length by its bit length, as its digits may run to
    hundreds.
    """

    def __init__(self, p: float, n: int, needed: int | None):
        self.p = p
        self.n = n
        self.needed = needed
        if needed is None:
            self.need = None
        elif needed > _MAX_SIZE:
            self.need = f"a {needed.bit_length()}-bit n"
        else:
            self.need = f"n >= {needed}"
        need = "no n can" if needed is None else f"need {self.need} to"
        super().__init__(f"insufficient samples: {need} resolve p = {p!r} (got n = {n})")


class ConfigError(TailquantError, ValueError):
    """An experiment configuration is invalid."""


def checked(name, value, read, valid, rule, error=DomainError):
    """``read(value)`` if ``valid`` accepts it, else raise ``error``: "<name> must <rule>, got <value!r>"."""
    got = read(value)
    if not valid(got):
        raise error(f"{name} must {rule}, got {value!r}")
    return got
