"""Command-line surface: one-shot estimation, weight inspection, simulation runs.

Output is machine-readable by construction: ``key=value`` lines for
`estimate` and `weights`, CSV for `simulate`.  Floating-point values are
printed with 17 significant digits so they round-trip exactly.

Exit codes: 0 success, 1 usage or input error, 2 insufficient data.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import re
import sys

import numpy as np

from .bayes import PriorBelief, posterior
from .bootstrap import bootstrap_weights, tail_variance
from .errors import DomainError, InsufficientSamples, TailquantError
from .estimators import check_p, observations, quantile_rank, smallest
from .experiment import ExperimentConfig, _fmt, parse_value, read_config, run_experiment

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INSUFFICIENT = 2

# `weights` lines per write, so memory does not grow with n
_LINES_PER_WRITE = 2**16


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only -123 and -1.5 for negative numbers, so a value
        # such as -1e3, -inf or the list -1e-3,0.01 would be read as an option
        self._negative_number_matcher = re.compile(r"-(?:\.?\d|inf|nan)", re.IGNORECASE)

    # argparse exits with status 2 on usage errors by default; the stable
    # contract here reserves 2 for insufficient data.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_observations(path: str) -> np.ndarray | list[float]:
    """The numbers of a UTF-8 file, read once, one per line; blank and ``#`` lines are skipped.

    `float` reads a line's bytes only if it is an ASCII number in ASCII whitespace, which the
    line loop would decode and strip to the same text; the loop decides every other file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    with contextlib.suppress(ValueError):  # to the loop
        if b"#" not in data:  # the bytes would be read up to the comment before it failed
            lines = filter(bytes.strip, io.BytesIO(data.removeprefix(b"\xef\xbb\xbf")))
            values = np.fromiter(map(float, lines), np.float64)
            if values.size:
                return values
    values = []
    # utf-8-sig drops a leading byte-order mark; the wrapper decodes as reading the file does
    for lineno, raw in enumerate(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise DomainError(f"malformed input at line {lineno}: {line!r}") from None
    if not values:
        raise DomainError(f"no observations found in {path}")
    return values


def _cmd_estimate(args) -> int:
    if (args.prior_mean is None) != (args.prior_var is None):
        raise DomainError("--prior-mean and --prior-var must be given together")
    p = check_p(args.p_value)
    prior = None if args.prior_mean is None else PriorBelief(args.prior_mean, args.prior_var)
    values = observations(_read_observations(args.data))
    n = values.size
    r = quantile_rank(n, p)
    # a prior needs the bootstrap variance as its likelihood variance
    want_variance = args.variance_mode == "bootstrap"
    weights = bootstrap_weights(n, r) if want_variance or prior is not None else None
    tail = smallest(values, r if weights is None else weights.hi)
    quantile = float(tail[r - 1])
    # every line is computed before any is printed, so a failure prints none
    lines = [f"n={n}", f"p={_fmt(p)}", f"rank={r}", f"quantile={_fmt(quantile)}"]
    if weights is not None:
        variance = tail_variance(tail, weights)
        if want_variance:
            lines.append(f"bootstrap_variance={_fmt(variance)}")
    if prior is not None:
        belief = posterior(prior, quantile, variance)
        lines.append(f"posterior_mean={_fmt(belief.mean)}")
        lines.append(f"posterior_variance={_fmt(belief.variance)}")
        lines.append(f"prior_weight={_fmt(belief.prior_weight)}")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_weights(args) -> int:
    rank = quantile_rank(args.n, check_p(args.p_value))
    weights = bootstrap_weights(args.n, rank)
    total = f"sum={_fmt(weights.w.sum())}\n"  # before any line, so a failure prints none
    # format(0.0, ".17g") is "0", so only the window needs formatting
    lines = itertools.chain(
        (f"{i},0\n" for i in range(1, weights.lo + 1)),
        (f"{i},{_fmt(w)}\n" for i, w in enumerate(weights.window.tolist(), start=weights.lo + 1)),
        (f"{i},0\n" for i in range(weights.hi + 1, weights.n + 1)),
        [total],
    )
    while chunk := "".join(itertools.islice(lines, _LINES_PER_WRITE)):
        sys.stdout.write(chunk)
    return EXIT_OK


# simulate flags that override a config key: flag -> (config key, help); the
# metavar is the one argparse derives from the flag
_CONFIG_FLAGS = {
    "--p": ("p_values", "comma-separated p-values"),
    "--n": ("sample_sizes", "comma-separated sample sizes"),
    "--sigma2": ("prior_variances", "comma-separated prior variances"),
    "--prior-mean": ("prior_mean", None),
    "--trials": ("trials", None),
    "--seed": ("seed", None),
    "--methods": ("methods", "comma-separated subset of sample,bayes_known,bayes_bootstrap"),
}


def _cmd_simulate(args) -> int:
    overrides = {
        key: parse_value(key, getattr(args, key), flag)
        for flag, (key, _) in _CONFIG_FLAGS.items()
        if getattr(args, key) is not None
    }
    # the flags replace the file's keys before either is validated
    config = read_config(args.config, **overrides) if args.config else ExperimentConfig(**overrides)

    table = run_experiment(config, workers=args.workers)
    table.write_csv(args.out)

    # a cell's rows are adjacent; repr is the shortest text that reads back as the float
    for (p, n, s2), rows in itertools.groupby(table.rows, lambda r: (r.p, r.n, r.sigma2)):
        parts = " ".join(f"{r.method.value}={r.rmse:.6g}" for r in rows)
        print(f"p={p!r} n={n} sigma2={s2!r} trials={config.trials}: {parts}")
    print(f"wrote {args.out} ({len(table.rows)} rows)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tailquant", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser(
        "estimate", help="estimate a low quantile from a data file",
        description="Estimate the p-quantile of newline-separated observations; "
        "optionally fuse with a normal prior using the analytic bootstrap variance.",
    )
    est.add_argument("data", help="UTF-8 text file, one number per line, # comments allowed")
    est.add_argument("--p-value", type=float, required=True, dest="p_value")
    est.add_argument("--prior-mean", type=float, default=None, dest="prior_mean")
    est.add_argument("--prior-var", type=float, default=None, dest="prior_var")
    est.add_argument(
        "--variance-mode", choices=("bootstrap", "none"), default="none",
        dest="variance_mode", help="print the analytic bootstrap variance (default: none)",
    )
    est.set_defaults(func=_cmd_estimate)

    wts = sub.add_parser(
        "weights", help="print analytic bootstrap weights for (n, p)",
        description="Print the infinite-resample weights of the rank-floor(n*p) "
        "order statistic, one 'i,w' line per observation, then their sum.",
    )
    wts.add_argument("--n", type=int, required=True)
    wts.add_argument("--p-value", type=float, required=True, dest="p_value")
    wts.set_defaults(func=_cmd_weights)

    sim = sub.add_parser(
        "simulate", help="run the Monte Carlo comparison and write a CSV table",
        description="Run seeded trials over a (p, n, sigma^2) grid and write "
        "per-cell, per-method RMSE as CSV.  Flags override config-file keys.",
    )
    sim.add_argument("--config", default=None, help="key=value config file")
    for flag, (key, help_text) in _CONFIG_FLAGS.items():
        metavar = flag[2:].replace("-", "_").upper()
        sim.add_argument(flag, dest=key, metavar=metavar, default=None, help=help_text)
    sim.add_argument("--workers", type=int, default=1, help="concurrent grid cells")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InsufficientSamples as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INSUFFICIENT
    except (TailquantError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
