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
from .errors import ConfigError, DomainError, EmptyInput, InsufficientSamples, integer, real
from .estimators import min_sample_size, quantile_rank

__all__ = [
    "Method",
    "ALL_METHODS",
    "ExperimentConfig",
    "RmseRow",
    "RmseTable",
    "CSV_HEADER",
    "rmse",
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
_MAX_SIZE = 100_000

# lattice values per chunk of a cell's sample block; a chunk holds at least one row
_CHUNK_VALUES = 2**17


def _default_sizes(p: float) -> tuple[int, ...]:
    """Log-spaced sample sizes from the smallest usable n up to 1e5."""
    lo = min_sample_size(p)
    if lo >= _MAX_SIZE:
        return (lo,)
    grid = np.geomspace(lo, _MAX_SIZE, _GRID_POINTS)
    return tuple(dict.fromkeys(int(round(v)) for v in grid))


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
        prior_mean = real(self.prior_mean)
        if not math.isfinite(prior_mean):
            raise ConfigError(f"prior_mean must be finite, got {self.prior_mean!r}")
        variances = _elements("prior_variances", self.prior_variances, real,
                              lambda v: math.isfinite(v) and v > 0.0, "be finite and > 0")
        p_values = _elements("p_values", self.p_values, real,
                             lambda p: 0.0 < p < 1.0, "lie strictly in (0, 1)")
        sizes = self.sample_sizes
        if sizes is not None:
            # n >= 1 is False for the NaN that `integer` returns for a non-integer
            sizes = _elements("sample_sizes", sizes, integer, lambda n: n >= 1, "be integers >= 1")
        trials = integer(self.trials)
        if not trials >= 1:
            raise ConfigError(f"trials must be an integer >= 1, got {self.trials!r}")
        seed = integer(self.seed)
        if not 0 <= seed < 2**64:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        try:
            methods = tuple(
                m if isinstance(m, Method) else Method(m)
                for m in _non_empty("methods", self.methods)
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        methods = tuple(dict.fromkeys(methods))
        object.__setattr__(self, "prior_mean", prior_mean)
        object.__setattr__(self, "prior_variances", variances)
        object.__setattr__(self, "p_values", p_values)
        object.__setattr__(self, "sample_sizes", sizes)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "methods", methods)
        for p in p_values:
            for n in self.sizes_for(p):
                try:
                    quantile_rank(n, p)
                except InsufficientSamples:
                    raise ConfigError(
                        f"(p={p:g}, n={n}) has floor(n*p) = 0; "
                        f"need n >= {min_sample_size(p)} for p = {p:g}"
                    ) from None
                except DomainError as exc:
                    # the size check: an explicit n, or the default grid's smallest
                    raise ConfigError(f"{exc} (p = {p:g})") from None

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


def _non_empty(name, seq):
    seq = tuple(seq)
    if not seq:
        raise ConfigError(f"{name} must not be empty")
    return seq


def _elements(name, seq, read, valid, rule):
    """Each element of a list field through ``read``, duplicates dropped in first-occurrence order.

    Raises ConfigError echoing the first invalid element.
    """
    items = _non_empty(name, seq)
    values = tuple(map(read, items))
    for item, value in zip(items, values):
        if not valid(value):
            raise ConfigError(f"{name} must {rule}, got {item!r}")
    return tuple(dict.fromkeys(values))


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


def rmse(squared_errors) -> float:
    """Root of the arithmetic mean of squared errors (pairwise summation)."""
    arr = np.asarray(squared_errors, dtype=np.float64)
    if arr.size == 0:
        raise EmptyInput("rmse of an empty collection is undefined")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise DomainError("squared errors must be finite and >= 0")
    return float(np.sqrt(np.mean(arr)))


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


def _run_cell(config: ExperimentConfig, cell: tuple[float, int, float]) -> dict[Method, float]:
    """RMSE per requested method of one grid cell: the trials' draws, then the methods on arrays."""
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
    return {m: rmse((estimates[m] - truth) ** 2) for m in config.methods}


def run_experiment(config: ExperimentConfig, workers: int = 1) -> RmseTable:
    """RMSE table over the whole grid; deterministic for any worker count >= 1."""
    threads = integer(workers)
    if not threads >= 1:
        raise ConfigError(f"workers must be an integer >= 1, got {workers!r}")
    cells = config.cells()
    if threads > 1 and len(cells) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(lambda c: _run_cell(config, c), cells))
    else:
        outcomes = [_run_cell(config, cell) for cell in cells]
    by_cell = dict(zip(cells, outcomes))
    rows = [
        RmseRow(p=p, n=n, sigma2=s2, method=m, rmse=by_cell[(p, n, s2)][m],
                trials=config.trials, seed=config.seed)
        for (p, n, s2) in cells
        for m in config.methods
    ]
    return RmseTable(tuple(rows))


_LIST_KEYS = {"prior_variances", "p_values", "sample_sizes", "methods"}
_SCALAR_KEYS = {"prior_mean", "trials", "seed"}


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
        if key not in _LIST_KEYS and key not in _SCALAR_KEYS:
            raise ConfigError(f"unknown config key {key!r} on line {lineno}")
        keys[key] = parse_value(key, value, f"{key!r} on line {lineno}")
    return ExperimentConfig(**{**keys, **overrides})


def parse_value(key: str, value: str, source: str):
    """Parse the text of config key ``key``; a bad value raises ConfigError naming ``source``."""
    try:
        if key in _LIST_KEYS:
            items = [v.strip() for v in value.split(",") if v.strip()]
            if key == "methods":
                return tuple(Method(v) for v in items)
            if key == "sample_sizes":
                return tuple(int(v) for v in items)
            return tuple(float(v) for v in items)
        if key == "prior_mean":
            return float(value)
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"bad value for {source}: {exc}") from None


def read_config(path, **overrides) -> ExperimentConfig:
    # utf-8-sig drops a byte-order mark at the start of the file
    return parse_config(Path(path).read_text(encoding="utf-8-sig"), **overrides)
