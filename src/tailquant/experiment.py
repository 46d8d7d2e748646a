"""Seeded Monte Carlo comparison of sample and Bayesian quantile estimators.

Three estimates of the p-quantile are compared by RMSE per grid cell
(p, n, sigma^2): the raw sample quantile, and the Bayesian posterior mean
with the asymptotic (true-density) variance or with the analytic bootstrap
variance.  `_run_cell` computes a cell as one block, with no loop over
trials.  First `_cell_draws` draws every trial's true quantile x_p from the
prior, and the lowest order statistics x_(1..hi) of its sample, up to the
top of the bootstrap weight window.  Then every requested method runs on
those arrays, and consumes no randomness.

Reproducibility contract: every cell owns a stream addressed by its content
(bit patterns of p and sigma^2, and the sample size), never by its position
in the grid.  Its child 0 draws the trials' x_p in one call, and its child 1
the trials' samples as the rows, in trial order, of one (trials, n) lattice
block.  Removing or adding cells, methods, or workers therefore cannot
perturb any other cell's draws, results are identical at any worker count,
and a larger trial count only appends trials.
"""

from __future__ import annotations

import itertools
import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .bayes import conjugate_update
from .bootstrap import bootstrap_weights, tail_variance
from .distributions import RngStream, rate_for_quantile
from .errors import ConfigError, DomainError, InsufficientSamples, checked, integer, real
from .estimators import min_sample_size, quantile_rank

__all__ = [
    "Method",
    "ALL_METHODS",
    "ExperimentConfig",
    "RmseRow",
    "RmseTable",
    "CSV_HEADER",
    "run_experiment",
    "read_config",
    "parse_config",
    "parse_value",
]


class Method(Enum):
    """Estimation methods compared by the harness."""

    SAMPLE = "sample"
    BAYES_KNOWN = "bayes_known"
    BAYES_BOOTSTRAP = "bayes_bootstrap"


ALL_METHODS = (Method.SAMPLE, Method.BAYES_KNOWN, Method.BAYES_BOOTSTRAP)

CSV_HEADER = "p,n,sigma2,method,rmse,trials,seed"

_GRID_POINTS = 6
_DEFAULT_TOP_N = 100_000

# lattice values per chunk of a cell's sample block; a chunk holds at least one row
_CHUNK_VALUES = 2**17


def _default_sizes(p: float) -> tuple[int, ...]:
    """Log-spaced sample sizes from the smallest usable n up to 1e5."""
    lo = min_sample_size(p)
    if lo >= _DEFAULT_TOP_N:
        return (lo,)
    grid = np.geomspace(lo, _DEFAULT_TOP_N, _GRID_POINTS)
    return tuple(dict.fromkeys(int(round(v)) for v in grid))


# each config key: the reader of its text (of the whole value, or of each comma-separated
# item of a list key), the reader of its value (of each element), the rule and its text
_FIELDS = {
    "prior_mean": (float, real, math.isfinite, "be finite"),
    "prior_variances": (float, real, lambda v: 0.0 < v < math.inf, "be finite and > 0"),
    "p_values": (float, real, lambda p: 0.0 < p < 1.0, "lie strictly in (0, 1)"),
    # n >= 1 is False for the NaN that `integer` returns for a non-integer
    "sample_sizes": (int, integer, lambda n: n >= 1, "be integers >= 1"),
    "trials": (int, integer, lambda n: n >= 1, "be an integer >= 1"),
    "seed": (int, integer, lambda s: 0 <= s < 2**64, "be an unsigned 64-bit integer"),
    # `Method` raises for a name it does not know, so every element it returns is valid
    "methods": (Method, Method, lambda m: True, "be method names"),
}
_LISTS = {"prior_variances", "p_values", "sample_sizes", "methods"}


def _elements(name, seq, read, valid, rule):
    """Each element of a list field through `checked`, duplicates dropped in first-occurrence order.

    Raises ConfigError echoing the first invalid element, or with `Method`'s text for an unknown name.
    """
    items = tuple(seq)
    if not items:
        raise ConfigError(f"{name} must not be empty")
    try:
        values = tuple(checked(name, item, read, valid, rule, ConfigError) for item in items)
    except ValueError as exc:  # `Method`'s own text; a ConfigError keeps its text
        raise ConfigError(str(exc)) from None
    return tuple(dict.fromkeys(values))


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid of (p, n, sigma^2) settings plus trial count, seed, and methods.

    When ``sample_sizes`` is None each p-value gets its own default grid
    (log-spaced from the smallest n that can resolve it up to 1e5); an
    explicit list is shared by all p-values and must be valid for each.
    """

    prior_mean: float = 0.0
    prior_variances: tuple[float, ...] = (1.0, 0.1, 0.01)
    p_values: tuple[float, ...] = (1e-2, 1e-3)
    sample_sizes: tuple[int, ...] | None = None
    trials: int = 1000
    seed: int = 12345
    methods: tuple[Method, ...] = ALL_METHODS

    def __post_init__(self):
        for key, (_, read, valid, rule) in _FIELDS.items():
            value = getattr(self, key)
            if key not in _LISTS:
                value = checked(key, value, read, valid, rule, ConfigError)
            elif value is not None or key != "sample_sizes":  # sample_sizes None: a grid per p
                value = _elements(key, value, read, valid, rule)
            object.__setattr__(self, key, value)
        for p in self.p_values:
            n = None
            try:
                for n in self.sizes_for(p):
                    quantile_rank(n, p)
            except InsufficientSamples as exc:
                need = "no n can resolve" if exc.need is None else f"need {exc.need} for"
                raise ConfigError(f"(p={p!r}, n={exc.n}) has floor(n*p) = 0; {need} p = {p!r}") from None
            except DomainError as exc:
                # only the size check, of an explicit n or the default grid's smallest, lacks p;
                # the default grid of a p that no n resolves fails before any n
                raise ConfigError(str(exc) if n is None else f"{exc} (p = {p!r})") from None

    def sizes_for(self, p: float) -> tuple[int, ...]:
        return self.sample_sizes if self.sample_sizes is not None else _default_sizes(p)

    def cells(self) -> list[tuple[float, int, float]]:
        """Grid cells in canonical (p, n, sigma^2) order."""
        return [
            (p, n, s2)
            for p in self.p_values
            for n in self.sizes_for(p)
            for s2 in self.prior_variances
        ]


@dataclass(frozen=True)
class RmseRow:
    p: float
    n: int
    sigma2: float
    method: Method
    rmse: float
    trials: int
    seed: int


@dataclass(frozen=True)
class RmseTable:
    """RMSE per (grid cell x method), serializable to plot-ready CSV."""

    rows: tuple[RmseRow, ...] = field(default_factory=tuple)

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for row in self.rows:
            lines.append(
                f"{_fmt(row.p)},{row.n},{_fmt(row.sigma2)},{row.method.value},"
                f"{_fmt(row.rmse)},{row.trials},{row.seed}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())


def _fmt(x: float) -> str:
    # 17 significant digits: lossless float round trip
    return format(float(x), ".17g")


def _float_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", float(x)))[0]


def cell_stream(seed: int, p: float, n: int, sigma2: float) -> RngStream:
    """The stream of one grid cell, addressed by its content."""
    return RngStream(seed, (_float_bits(p), int(n), _float_bits(sigma2)))


def _cell_draws(config: ExperimentConfig, cell: tuple[float, int, float], k: int):
    """The x_p of each trial, (trials,), and the k lowest of its n draws, ascending, (trials, k).

    The lattice block is drawn in chunks of rows, which give the bits of one
    draw, so memory stays O(chunk + trials * k).  Raises DomainError if the
    draws are not finite and ascending (a rounding broke their order), or on
    the first trial whose drawn x_p has no finite positive rate.
    """
    p, n, sigma2 = cell
    stream = cell_stream(config.seed, p, n, sigma2)
    z = stream.child(0).generator().standard_normal(config.trials)
    x_p = config.prior_mean + math.sqrt(sigma2) * z
    model = rate_for_quantile(0.0, p)  # the model at x_p = 0; x_p shifts its draws
    with np.errstate(over="ignore"):
        rates = model.rate * np.exp(-x_p)
    for first_bad in x_p[(rates == 0.0) | (rates == math.inf)][:1].tolist():
        rate_for_quantile(first_bad, p)  # raises the error for the first such x_p
    chunk = max(1, _CHUNK_VALUES // n)
    values = x_p[:, None] + model._lowest_rows(stream.child(1).generator(), config.trials, n, k, chunk)
    if not (np.all(np.isfinite(values)) and np.all(values[:, 1:] >= values[:, :-1])):
        raise DomainError("the inverse-CDF transform is not finite and monotone on these draws")
    return x_p, values


def _run_cell(config: ExperimentConfig, cell: tuple[float, int, float]) -> list[RmseRow]:
    """The rows of one grid cell, one per requested method: the trials' draws, then the methods on arrays."""
    p, n, sigma2 = cell
    r = quantile_rank(n, p)
    # hi columns whatever the methods, so a trial's tails do not depend on them
    weights = bootstrap_weights(n, r)
    truth, tails = _cell_draws(config, cell, weights.hi)
    quantile = tails[:, r - 1]
    big_l = -math.log1p(-p)
    # the density at x_p is L * (1 - p) for every x_p, so bayes_known has one
    # asymptotic variance per cell
    variances = {Method.BAYES_KNOWN: p / (n * big_l * big_l * (1.0 - p))}
    if Method.BAYES_BOOTSTRAP in config.methods:
        variances[Method.BAYES_BOOTSTRAP] = tail_variance(tails, weights)
    estimates = {m: conjugate_update(config.prior_mean, sigma2, quantile, sn2)[0]
                 for m, sn2 in variances.items() if m in config.methods}
    estimates[Method.SAMPLE] = quantile
    return [RmseRow(p, n, sigma2, m, float(np.sqrt(np.mean((estimates[m] - truth) ** 2))),
                    config.trials, config.seed) for m in config.methods]


def run_experiment(config: ExperimentConfig, workers: int = 1) -> RmseTable:
    """RMSE table over the whole grid; deterministic for any worker count >= 1."""
    threads = checked("workers", workers, integer, lambda w: w >= 1, "be an integer >= 1", ConfigError)
    cells = config.cells()
    if threads > 1 and len(cells) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_cell = list(pool.map(lambda c: _run_cell(config, c), cells))
    else:
        per_cell = [_run_cell(config, cell) for cell in cells]
    return RmseTable(tuple(itertools.chain.from_iterable(per_cell)))


def parse_config(text: str, **overrides) -> ExperimentConfig:
    """Parse ``key = value`` lines, of which ``overrides`` replace keys, into one config.

    Lists are comma-separated, # starts a comment, and only LF, CR and CRLF end a line."""
    keys: dict = {}
    for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if not sep or not key or not value:
            raise ConfigError(f"malformed config line {lineno}: {raw.rstrip()!r}")
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r} on line {lineno}")
        keys[key] = parse_value(key, value, f"{key!r} on line {lineno}")
    return ExperimentConfig(**{**keys, **overrides})


def parse_value(key: str, value: str, source: str):
    """Parse the text of config key ``key``; a bad value raises ConfigError naming ``source``."""
    read = _FIELDS[key][0]
    try:
        if key not in _LISTS:
            return read(value)
        return tuple(read(v.strip()) for v in value.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {source}: {exc}") from None


def read_config(path, **overrides) -> ExperimentConfig:
    # utf-8-sig drops a byte-order mark at the start of the file
    return parse_config(Path(path).read_text(encoding="utf-8-sig"), **overrides)
