"""Seeded Monte Carlo comparison of sample and Bayesian quantile estimators.

Each trial draws a true quantile from the prior, calibrates the
log-exponential model to it, draws a sample, and estimates the quantile
three ways: the raw sample quantile, the Bayesian posterior mean with the
asymptotic (true-density) variance, and the posterior mean with the analytic
bootstrap variance.  RMSE per grid cell is aggregated over trials.

A trial reads only the lowest order statistics of its sample: x_(r) for the
sample quantile and, for the bootstrap variance, x_(1..hi), where hi is the
top of the bootstrap weight window (about r + c*sqrt(r)).  It draws just
those with `LogExponential.lowest`, which returns them bit for bit as
sorting the full sample would, so the results equal the full-sample path's.

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

from .bayes import PriorBelief, posterior
from .bootstrap import bootstrap_weights, tail_variance
from .distributions import RngStream, asymptotic_variance, normal_draw, rate_for_quantile
from .errors import ConfigError, DomainError, EmptyInput, integer, real
from .estimators import min_sample_size, quantile_rank

__all__ = [
    "Method",
    "ALL_METHODS",
    "ExperimentConfig",
    "TrialResult",
    "RmseRow",
    "RmseTable",
    "CSV_HEADER",
    "rmse",
    "run_trial",
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
        variances = tuple(float(v) for v in _non_empty("prior_variances", self.prior_variances))
        if any(not (math.isfinite(v) and v > 0.0) for v in variances):
            raise ConfigError(f"prior_variances must be finite and > 0, got {variances}")
        p_values = tuple(float(p) for p in _non_empty("p_values", self.p_values))
        for p in p_values:
            if not 0.0 < p < 1.0:
                raise ConfigError(f"p_values must lie strictly in (0, 1), got {p!r}")
        sizes = self.sample_sizes
        if sizes is not None:
            sizes = tuple(int(n) for n in _non_empty("sample_sizes", sizes))
            if any(n < 1 for n in sizes):
                raise ConfigError(f"sample_sizes must be >= 1, got {sizes}")
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
                if math.floor(n * p) < 1:
                    raise ConfigError(
                        f"(p={p:g}, n={n}) has floor(n*p) = 0; "
                        f"need n >= {min_sample_size(p)} for p = {p:g}"
                    )

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


@dataclass(frozen=True)
class TrialResult:
    """One trial's drawn truth and the per-method estimates and squared errors."""

    true_quantile: float
    estimates: dict[Method, float]
    squared_errors: dict[Method, float]
    trial: int


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


def run_trial(
    p: float,
    n: int,
    prior: PriorBelief,
    methods: tuple[Method, ...],
    rng: RngStream,
    trial: int = 0,
) -> TrialResult:
    """One simulation trial at a fixed (p, n, prior) setting.

    Draws the true quantile from the prior, calibrates the model, draws the
    sample once, and evaluates every requested method on that same sample.
    Only the lowest r order statistics are drawn, or the lowest hi when the
    bootstrap variance is requested.  Methods consume no randomness of their
    own.
    """
    r = quantile_rank(n, p)
    weights = bootstrap_weights(n, r) if Method.BAYES_BOOTSTRAP in methods else None
    x_p = normal_draw(prior, rng.child(_DRAW_QUANTILE))
    model = rate_for_quantile(x_p, p)
    k = r if weights is None else weights.hi
    tail = model.lowest(n, k, rng.child(_DRAW_SAMPLE))
    estimate = float(tail[r - 1])

    estimates: dict[Method, float] = {}
    for method in methods:
        if method is Method.SAMPLE:
            estimates[method] = estimate
        elif method is Method.BAYES_KNOWN:
            sn2 = asymptotic_variance(p, n, model.pdf(x_p))
            estimates[method] = posterior(prior, estimate, sn2).mean
        elif method is Method.BAYES_BOOTSTRAP:
            sn2 = tail_variance(tail, weights)
            estimates[method] = posterior(prior, estimate, sn2).mean
        else:
            raise ConfigError(f"unknown method {method!r}")
    squared = {m: (v - x_p) ** 2 for m, v in estimates.items()}
    return TrialResult(
        true_quantile=x_p, estimates=estimates, squared_errors=squared, trial=trial
    )


def _float_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", float(x)))[0]


def trial_stream(seed: int, p: float, n: int, sigma2: float, trial: int) -> RngStream:
    """The substream owned by one (cell, trial); addressed by cell content."""
    return RngStream(seed, (_float_bits(p), int(n), _float_bits(sigma2), trial))


def _run_cell(config: ExperimentConfig, cell: tuple[float, int, float]) -> dict[Method, float]:
    p, n, sigma2 = cell
    prior = PriorBelief(config.prior_mean, sigma2)
    squared = {m: np.empty(config.trials) for m in config.methods}
    for t in range(config.trials):
        result = run_trial(
            p, n, prior, config.methods, trial_stream(config.seed, p, n, sigma2, t), trial=t
        )
        for m in config.methods:
            squared[m][t] = result.squared_errors[m]
    return {m: rmse(squared[m]) for m in config.methods}


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
    return parse_config(Path(path).read_text(encoding="utf-8"))
