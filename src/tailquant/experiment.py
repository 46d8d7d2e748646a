"""Seeded Monte Carlo comparison of sample and Bayesian quantile estimators.

Three estimates of the p-quantile are compared by RMSE per grid cell
(p, n, sigma^2): the raw sample quantile, and the Bayesian posterior mean
with the asymptotic (true-density) variance or with the analytic bootstrap
variance.  `_run_cell` computes a cell in two steps.  First each trial draws
a true quantile x_p from the prior, calibrates the model to it, and draws
only the lowest order statistics of its sample: x_(1..r), or x_(1..hi) up to
the top of the bootstrap weight window when the bootstrap is requested
(`LogExponential.lowest`, bit for bit the full sample's).  The cell keeps
x_p, x_(r) and each requested sample variance in `(trials,)` arrays.  Then
every requested method runs on those arrays, and consumes no randomness.

Reproducibility contract: every trial owns a substream addressed by the
content of its grid cell (bit patterns of p and sigma^2, the sample size,
and the trial index), never by position in the grid.  Removing or adding
cells, methods, or workers therefore cannot perturb any other cell's draws,
and results are identical at any worker count.
"""

from __future__ import annotations

import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .bayes import PriorBelief, conjugate_update
from .bootstrap import bootstrap_weights, tail_variance
from .distributions import RngStream, asymptotic_variance, normal_draw, rate_for_quantile
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

# substream purposes inside one trial
_DRAW_QUANTILE = 0
_DRAW_SAMPLE = 1


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
    """The stream of one grid cell, addressed by its content; trial t owns its child t."""
    return RngStream(seed, (_float_bits(p), int(n), _float_bits(sigma2)))


def _run_cell(config: ExperimentConfig, cell: tuple[float, int, float]) -> dict[Method, float]:
    """RMSE per requested method of one grid cell: the trials' draws, then the methods on arrays."""
    p, n, sigma2 = cell
    prior = PriorBelief(config.prior_mean, sigma2)
    r = quantile_rank(n, p)
    weights = bootstrap_weights(n, r) if Method.BAYES_BOOTSTRAP in config.methods else None
    k = r if weights is None else weights.hi
    stream = cell_stream(config.seed, p, n, sigma2)
    truth, quantile = np.empty(config.trials), np.empty(config.trials)
    # sigma_n^2 per trial, for each requested Bayesian method
    variances = {m: np.empty(config.trials) for m in config.methods if m is not Method.SAMPLE}
    for t in range(config.trials):
        x_p = normal_draw(prior, stream.child(t, _DRAW_QUANTILE))
        model = rate_for_quantile(x_p, p)
        tail = model.lowest(n, k, stream.child(t, _DRAW_SAMPLE))
        truth[t], quantile[t] = x_p, tail[r - 1]
        if Method.BAYES_KNOWN in variances:
            variances[Method.BAYES_KNOWN][t] = asymptotic_variance(p, n, model.pdf(x_p))
        if weights is not None:
            variances[Method.BAYES_BOOTSTRAP][t] = tail_variance(tail, weights)
    estimates = {
        m: conjugate_update(prior.mean, prior.variance, quantile, sn2)[0]
        for m, sn2 in variances.items()
    }
    estimates[Method.SAMPLE] = quantile
    truths = truth.tolist()
    # squared as Python floats: float ** 2 is libm pow, which rounds about 1
    # square in 1,000 differently from numpy's x * x, enough to move the RMSE
    # bits of a cell with few trials
    return {
        m: rmse([(v - x) ** 2 for v, x in zip(estimates[m].tolist(), truths)])
        for m in config.methods
    }


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


def parse_config(text: str) -> ExperimentConfig:
    """Parse ``key = value`` lines; lists are comma-separated, # starts a comment."""
    overrides: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
        overrides[key] = parse_value(key, value, f"{key!r} on line {lineno}")
    return ExperimentConfig(**overrides)


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


def read_config(path) -> ExperimentConfig:
    # utf-8-sig drops a byte-order mark at the start of the file
    return parse_config(Path(path).read_text(encoding="utf-8-sig"))
