import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tailquant

from tailquant import experiment
from tailquant.bayes import PriorBelief, conjugate_update, posterior
from tailquant.bootstrap import bootstrap_weights, tail_variance
from tailquant.distributions import LogExponential, rate_for_quantile
from tailquant.errors import ConfigError, DomainError, EmptyInput
from tailquant.estimators import min_sample_size, quantile_rank
from tailquant.experiment import (
    ALL_METHODS,
    CSV_HEADER,
    ExperimentConfig,
    Method,
    RmseRow,
    RmseTable,
    _cell_draws,
    cell_stream,
    parse_config,
    read_config,
    rmse,
    run_experiment,
)

FAST = dict(
    prior_variances=(1.0, 0.01),
    p_values=(0.1,),
    sample_sizes=(10, 25),
    trials=4,
    seed=7,
)


def reference_cell(config: ExperimentConfig, cell):
    """The full-sample loop of one cell: each trial's x_p, and each method's estimates.

    The cell's trials * n draws come from one `sample` call, cut into rows in
    trial order; each row is fully sorted, and each trial's estimates come
    from its sorted row through the scalar posterior.
    """
    p, n, s2 = cell
    prior = PriorBelief(config.prior_mean, s2)
    stream = cell_stream(config.seed, p, n, s2)
    z = stream.child(0).generator().standard_normal(config.trials)
    truth = config.prior_mean + math.sqrt(s2) * z
    draws = rate_for_quantile(0.0, p).sample(config.trials * n, stream.child(1)).reshape(config.trials, n)
    ordered = np.sort(truth[:, None] + draws)
    r = quantile_rank(n, p)
    big_l = -math.log1p(-p)
    known = p / (n * big_l * big_l * (1.0 - p))
    estimates = {}
    for m in config.methods:
        if m is Method.SAMPLE:
            estimates[m] = ordered[:, r - 1]
            continue
        variances = [
            known if m is Method.BAYES_KNOWN else tail_variance(row, bootstrap_weights(n, r))
            for row in ordered
        ]
        estimates[m] = np.array([
            posterior(prior, float(row[r - 1]), sn2).mean for row, sn2 in zip(ordered, variances)
        ])
    return truth, estimates


def reference_experiment(config: ExperimentConfig) -> RmseTable:
    """The full-sample loop over the whole grid."""
    rows = []
    for p, n, s2 in config.cells():
        truth, estimates = reference_cell(config, (p, n, s2))
        rows.extend(
            RmseRow(p, n, s2, m, rmse((estimates[m] - truth) ** 2), config.trials, config.seed)
            for m in config.methods
        )
    return RmseTable(tuple(rows))


def one_cell(p, n, sigma2, trials, seed, methods=ALL_METHODS, prior_mean=0.0):
    return ExperimentConfig(
        prior_mean=prior_mean, prior_variances=(sigma2,), p_values=(p,),
        sample_sizes=(n,), trials=trials, seed=seed, methods=methods,
    )


class TestRmse:
    def test_all_zero(self):
        assert rmse([0.0, 0.0, 0.0]) == 0.0

    def test_two_values(self):
        assert rmse([9.0, 16.0]) == pytest.approx(math.sqrt(12.5), rel=1e-15)

    def test_singleton(self):
        assert rmse([4.0]) == 2.0

    def test_empty(self):
        with pytest.raises(EmptyInput):
            rmse([])

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            rmse([1.0, -0.5])


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.prior_mean == 0.0
        assert config.trials == 1000
        assert config.methods == ALL_METHODS
        assert config.p_values == (0.01, 0.001)
        assert config.prior_variances == (1.0, 0.1, 0.01)

    @pytest.mark.parametrize("p", [0.01, 0.001])
    def test_default_size_grid(self, p):
        config = ExperimentConfig()
        sizes = config.sizes_for(p)
        assert len(sizes) == 6
        assert sizes[0] == min_sample_size(p)
        assert sizes[-1] == 100_000
        assert all(b > a for a, b in zip(sizes, sizes[1:]))
        assert all(math.floor(n * p) >= 1 for n in sizes)

    def test_cells_cardinality(self):
        config = ExperimentConfig()
        assert len(config.cells()) == 2 * 6 * 3

    def test_explicit_sizes_checked_against_every_p(self):
        with pytest.raises(ConfigError, match=r"p=0\.001, n=100"):
            ExperimentConfig(p_values=(0.01, 0.001), sample_sizes=(100, 1000))

    def test_rejects_bad_trials(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(trials=0)

    def test_rejects_bad_variance(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(prior_variances=(1.0, 0.0))

    @pytest.mark.parametrize("size", [100.7, math.nan, 0])
    def test_rejects_non_integral_size(self, size):
        # a float size used to be truncated to int, and NaN slipped past n < 1
        with pytest.raises(ConfigError, match=rf"sample_sizes must be integers >= 1, got {size!r}"):
            ExperimentConfig(p_values=(0.1,), sample_sizes=(size,), trials=2)

    @pytest.mark.parametrize(
        "sizes,p,message",
        [((2**63,), 0.1, r"sample size must be at most \d+, got a 64-bit integer \(p = 0\.1\)"),
         (None, 1e-300, r"sample size must be at most .*, got a 997-bit integer \(p = 1e-300\)")],
        ids=["explicit", "default-grid"],
    )
    def test_rejects_a_size_larger_than_any_array(self, sizes, p, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(p_values=(p,), sample_sizes=sizes, trials=2)

    def test_rejects_unknown_method(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(methods=("sample", "oracle"))

    def test_accepts_method_names(self):
        config = ExperimentConfig(methods=("sample", "bayes_known"))
        assert config.methods == (Method.SAMPLE, Method.BAYES_KNOWN)

    def test_deduplicates_methods(self):
        config = ExperimentConfig(methods=("sample", "sample"))
        assert config.methods == (Method.SAMPLE,)

    def test_rejects_empty_lists(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(p_values=())


class TestRunTrial:
    """What one trial must do, checked on the cell that runs it."""

    def test_bit_for_bit_reproducible(self):
        config = one_cell(0.1, 30, 0.5, trials=5, seed=11)
        first = experiment._run_cell(config, (0.1, 30, 0.5))
        second = experiment._run_cell(config, (0.1, 30, 0.5))
        assert list(first) == list(ALL_METHODS)
        assert all(first[m].hex() == second[m].hex() for m in ALL_METHODS)

    def test_squared_errors_are_exact_squares(self):
        # the RMSE of one trial is the root of that trial's squared error, to the bit
        config = one_cell(0.2, 40, 1.0, trials=1, seed=5)
        truth, estimates = reference_cell(config, (0.2, 40, 1.0))
        for row in run_experiment(config).rows:
            error = float(estimates[row.method][0] - truth[0])
            assert row.rmse == math.sqrt(error * error)

    def test_methods_consume_no_randomness(self):
        # the drawn truths and sample-based estimates are identical whether or
        # not the Bayesian methods run
        grid = dict(prior_variances=(1.0, 0.01), p_values=(0.1,), sample_sizes=(50, 400),
                    trials=20, seed=13)
        all_methods = run_experiment(ExperimentConfig(**grid, methods=ALL_METHODS))
        sample_only = run_experiment(ExperimentConfig(**grid, methods=(Method.SAMPLE,)))
        kept = [r for r in all_methods.rows if r.method is Method.SAMPLE]
        assert kept == list(sample_only.rows)

    def test_huge_noise_variance_recovers_prior_mean(self):
        prior = PriorBelief(0.0, 1.0)
        config = one_cell(0.1, 50, 1.0, trials=20, seed=17, methods=(Method.SAMPLE,))
        quantiles = reference_cell(config, (0.1, 50, 1.0))[1][Method.SAMPLE]
        means = conjugate_update(prior.mean, prior.variance, quantiles, np.full(20, 1e12))[0]
        for xhat, mean in zip(quantiles.tolist(), means.tolist()):
            assert abs(mean - prior.mean) <= 1e-12 * max(1.0, abs(xhat))
            # the array update gives each trial the bits of the scalar posterior
            assert mean.hex() == posterior(prior, xhat, 1e12).mean.hex()

    def test_degenerate_prior_oracle(self):
        # prior variance 1e-20: the Bayesian estimates collapse onto the prior
        # mean and beat the raw sample quantile nearly always
        p, n, trials = 0.1, 10, 1000
        config = one_cell(p, n, 1e-20, trials=trials, seed=29)
        assert run_experiment(config).to_csv() == reference_experiment(config).to_csv()
        truth, estimates = reference_cell(config, (p, n, 1e-20))
        assert np.all(np.abs(estimates[Method.BAYES_KNOWN]) < 1e-6)
        assert np.all(np.abs(estimates[Method.BAYES_BOOTSTRAP]) < 1e-6)
        squared = {m: (v - truth) ** 2 for m, v in estimates.items()}
        wins = np.sum(
            (squared[Method.BAYES_KNOWN] <= squared[Method.SAMPLE])
            & (squared[Method.BAYES_BOOTSTRAP] <= squared[Method.SAMPLE])
        )
        assert wins >= 0.95 * trials

    @pytest.mark.parametrize(
        "methods,unused",
        [
            ((Method.SAMPLE,), ("conjugate_update", "tail_variance")),
            ((Method.BAYES_KNOWN,), ("tail_variance",)),
            ((Method.BAYES_BOOTSTRAP,), ()),
        ],
        ids=["sample", "bayes_known", "bayes_bootstrap"],
    )
    def test_only_requested_work(self, monkeypatch, methods, unused):
        def fail(*args):
            raise AssertionError("called for a method that was not requested")

        for name in unused:
            monkeypatch.setattr(experiment, name, fail)
        config = one_cell(0.01, 1000, 1.0, trials=3, seed=2, methods=methods)
        assert [r.method for r in run_experiment(config).rows] == list(methods)


class TestRunExperiment:
    def test_single_trial_rmse_is_absolute_error(self):
        config = one_cell(0.1, 20, 1.0, trials=1, seed=3)
        table = run_experiment(config)
        truth, estimates = reference_cell(config, (0.1, 20, 1.0))
        for row in table.rows:
            assert row.rmse == pytest.approx(abs(estimates[row.method][0] - truth[0]), rel=1e-15)

    def test_row_count_and_order(self):
        config = ExperimentConfig(**FAST)
        table = run_experiment(config)
        assert len(table.rows) == 2 * 2 * 3
        keys = [(r.p, r.n, r.sigma2, r.method) for r in table.rows]
        expected = [
            (p, n, s2, m)
            for p in config.p_values
            for n in config.sample_sizes
            for s2 in config.prior_variances
            for m in config.methods
        ]
        assert keys == expected

    def test_deterministic_across_runs(self):
        config = ExperimentConfig(**FAST)
        assert run_experiment(config) == run_experiment(config)

    def test_deterministic_across_worker_counts(self):
        config = ExperimentConfig(**FAST)
        assert run_experiment(config, workers=1) == run_experiment(config, workers=4)

    def test_cells_are_substream_isolated(self):
        full = run_experiment(ExperimentConfig(**FAST))
        smaller = run_experiment(ExperimentConfig(**{**FAST, "sample_sizes": (25,)}))
        kept = [r for r in full.rows if r.n == 25]
        assert kept == list(smaller.rows)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_workers_below_one(self, workers):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig(**FAST), workers=workers)

    def test_different_seed_changes_results(self):
        a = run_experiment(ExperimentConfig(**FAST))
        b = run_experiment(ExperimentConfig(**{**FAST, "seed": 8}))
        assert any(x.rmse != y.rmse for x, y in zip(a.rows, b.rows))


class TestTailOnlyDraws:
    # run_experiment transforms and sorts only the lowest order statistics;
    # its CSV must be byte-identical to the full-sample loop's
    @pytest.mark.parametrize(
        "methods",
        [ALL_METHODS, (Method.SAMPLE,), (Method.SAMPLE, Method.BAYES_KNOWN)],
        ids=lambda ms: "+".join(m.value for m in ms),
    )
    @pytest.mark.parametrize(
        "grid",
        [
            dict(p_values=(0.01,), sample_sizes=(100, 1000, 100_000)),
            dict(p_values=(0.3, 0.9), sample_sizes=(10, 37, 500)),
        ],
        ids=["tail", "central"],
    )
    def test_matches_full_sample_loop(self, grid, methods):
        config = ExperimentConfig(
            prior_variances=(1.0, 0.01), trials=3, seed=11, methods=methods, **grid
        )
        assert run_experiment(config).to_csv() == reference_experiment(config).to_csv()


class TestCellStream:
    """The draws of a cell are the rows, in trial order, of one lattice block."""

    GRID = dict(p_values=(0.01,), sample_sizes=(1000, 20_000), prior_variances=(1.0,),
                trials=140, seed=41)

    @pytest.mark.parametrize("chunk", ["one-row", "all-rows"])
    def test_csv_does_not_depend_on_the_chunk_size(self, monkeypatch, chunk):
        # the default chunk holds 131 rows at n = 1000 and 6 at n = 20000,
        # so both cells end on a shorter chunk
        config = ExperimentConfig(**self.GRID)
        expected = run_experiment(config).to_csv()
        values = 1 if chunk == "one-row" else config.trials * max(config.sample_sizes)
        monkeypatch.setattr(experiment, "_CHUNK_VALUES", values)
        assert run_experiment(config).to_csv() == expected

    @pytest.mark.parametrize("n", [10, 1000, 100_000])
    def test_more_trials_only_append_rows(self, n):
        p, k = 0.1, bootstrap_weights(n, quantile_rank(n, 0.1)).hi
        fewer = _cell_draws(ExperimentConfig(p_values=(p,), sample_sizes=(n,), trials=3), (p, n, 1.0), k)
        more = _cell_draws(ExperimentConfig(p_values=(p,), sample_sizes=(n,), trials=7), (p, n, 1.0), k)
        assert fewer[0].tobytes() == more[0][:3].tobytes()
        assert fewer[1].tobytes() == more[1][:3].tobytes()

    def test_the_first_unrepresentable_truth_is_named(self):
        # with sigma^2 = 1e6 most drawn x_p lie beyond about +-710, where the
        # rate overflows or underflows; the error names the first in trial order
        def representable(x_p):
            try:
                return rate_for_quantile(x_p, 0.1).rate > 0.0
            except DomainError:
                return False

        z = cell_stream(12345, 0.1, 100, 1e6).child(0).generator().standard_normal(5)
        first = next(x for x in (1e3 * z).tolist() if not representable(x))
        with pytest.raises(DomainError, match=re.escape(f"x_p = {first!r} ")):
            run_experiment(one_cell(0.1, 100, 1e6, trials=5, seed=12345))

    @pytest.mark.parametrize("transform", [
        lambda self, k: -k * 1.0,
        lambda self, k: np.where(k > 2**52, np.nan, k * 1.0),
    ], ids=["descending", "nan"])
    def test_a_block_that_is_not_finite_and_ascending_raises(self, monkeypatch, transform):
        monkeypatch.setattr(LogExponential, "_from_lattice", transform)
        with pytest.raises(DomainError, match="not finite and monotone"):
            run_experiment(one_cell(0.1, 100, 1.0, trials=20, seed=3))


try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

# numpy's AVX512 dispatch groups; with them disabled, numpy takes its AVX2 paths
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


class TestSimdLevel:
    # numpy's log, log1p and exp round their last bit differently on different
    # SIMD paths, so CSV bytes are fixed per host and numpy build; this pins
    # how far a row may move between the AVX512 and the AVX2 path
    @pytest.mark.skipif(not __cpu_features__.get("X86_V4"), reason="no AVX512 path to compare")
    def test_rows_within_a_few_ulp_without_avx512(self):
        grid = dict(p_values=(0.01, 0.001), sample_sizes=(1000, 100_000), trials=50, seed=5)
        script = (
            "import sys; from tailquant.experiment import ExperimentConfig, run_experiment; "
            f"sys.stdout.write(run_experiment(ExperimentConfig(**{grid!r})).to_csv())"
        )
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": NO_AVX512,
               "PYTHONPATH": str(Path(tailquant.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120, check=True)
        table = run_experiment(ExperimentConfig(**grid))
        ours = [line.split(",") for line in table.to_csv().splitlines()]
        theirs = [line.split(",") for line in proc.stdout.splitlines()]
        assert len(theirs) == len(ours) == 1 + 2 * 2 * 3 * 3
        for a, b in zip(ours[1:], theirs[1:]):
            assert a[:4] + a[5:] == b[:4] + b[5:]
            x, y = float(a[4]), float(b[4])
            assert abs(x - y) <= 4 * math.ulp(max(x, y)), (a, b)


class TestCsv:
    def test_header_and_shape(self):
        table = run_experiment(ExperimentConfig(**FAST))
        lines = table.to_csv().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(table.rows)

    def test_fields_round_trip(self):
        table = run_experiment(ExperimentConfig(**FAST))
        for row, line in zip(table.rows, table.to_csv().splitlines()[1:]):
            p, n, sigma2, method, value, trials, seed = line.split(",")
            assert float(p) == row.p
            assert int(n) == row.n
            assert float(sigma2) == row.sigma2
            assert method == row.method.value
            assert float(value) == row.rmse
            assert int(trials) == row.trials
            assert int(seed) == row.seed

    def test_method_names(self):
        assert [m.value for m in ALL_METHODS] == ["sample", "bayes_known", "bayes_bootstrap"]

    def test_write_is_byte_stable(self, tmp_path):
        table = run_experiment(ExperimentConfig(**FAST))
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        table.write_csv(first)
        table.write_csv(second)
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes().endswith(b"\n")


class TestConfigParsing:
    def test_full_file(self, tmp_path):
        text = """
        # comparison setup
        prior_mean = 0.5
        prior_variances = 1, 0.25
        p_values = 0.1
        sample_sizes = 10, 40   # shared across p-values
        trials = 9
        seed = 31
        methods = sample, bayes_known
        """
        path = tmp_path / "run.cfg"
        path.write_text(text, encoding="utf-8")
        config = read_config(path)
        assert config.prior_mean == 0.5
        assert config.prior_variances == (1.0, 0.25)
        assert config.p_values == (0.1,)
        assert config.sample_sizes == (10, 40)
        assert config.trials == 9
        assert config.seed == 31
        assert config.methods == (Method.SAMPLE, Method.BAYES_KNOWN)

    def test_empty_text_gives_defaults(self):
        assert parse_config("") == ExperimentConfig()

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config("bogus = 1")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("trials")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_config("trials = soon")

    def test_bad_method(self):
        with pytest.raises(ConfigError):
            parse_config("methods = sample, oracle")

    def test_invalid_grid_is_named(self):
        with pytest.raises(ConfigError, match=r"p=0\.001, n=10"):
            parse_config("p_values = 0.001\nsample_sizes = 10")
