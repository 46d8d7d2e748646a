import math

import numpy as np
import pytest

from tailquant.bayes import PriorBelief, posterior
from tailquant.bootstrap import bootstrap_weights, tail_variance
from tailquant.distributions import asymptotic_variance, normal_draw, rate_for_quantile
from tailquant.errors import ConfigError, DomainError, EmptyInput
from tailquant.estimators import min_sample_size, quantile_rank
from tailquant.experiment import (
    ALL_METHODS,
    CSV_HEADER,
    ExperimentConfig,
    Method,
    RmseRow,
    RmseTable,
    parse_config,
    read_config,
    rmse,
    run_experiment,
    run_trial,
    trial_stream,
)

FAST = dict(
    prior_variances=(1.0, 0.01),
    p_values=(0.1,),
    sample_sizes=(10, 25),
    trials=4,
    seed=7,
)


def reference_experiment(config: ExperimentConfig) -> RmseTable:
    """The full-sample trial loop: draw and sort all n, then estimate from the whole sorted array."""
    rows = []
    for p, n, s2 in config.cells():
        prior = PriorBelief(config.prior_mean, s2)
        squared = {m: [] for m in config.methods}
        for t in range(config.trials):
            stream = trial_stream(config.seed, p, n, s2, t)
            x_p = normal_draw(prior, stream.child(0))
            model = rate_for_quantile(x_p, p)
            ordered = np.sort(model.sample(n, stream.child(1)))
            r = quantile_rank(n, p)
            estimate = float(ordered[r - 1])
            for m in config.methods:
                if m is Method.SAMPLE:
                    value = estimate
                elif m is Method.BAYES_KNOWN:
                    sn2 = asymptotic_variance(p, n, model.pdf(x_p))
                    value = posterior(prior, estimate, sn2).mean
                else:
                    sn2 = tail_variance(ordered, bootstrap_weights(n, r))
                    value = posterior(prior, estimate, sn2).mean
                squared[m].append((value - x_p) ** 2)
        rows.extend(
            RmseRow(p, n, s2, m, rmse(squared[m]), config.trials, config.seed)
            for m in config.methods
        )
    return RmseTable(tuple(rows))


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
    def test_bit_for_bit_reproducible(self):
        prior = PriorBelief(0.0, 0.5)
        stream = trial_stream(11, 0.1, 30, 0.5, trial=3)
        first = run_trial(0.1, 30, prior, ALL_METHODS, stream, trial=3)
        second = run_trial(0.1, 30, prior, ALL_METHODS, stream, trial=3)
        assert first == second

    def test_squared_errors_are_exact_squares(self):
        prior = PriorBelief(0.0, 1.0)
        result = run_trial(0.2, 40, prior, ALL_METHODS, trial_stream(5, 0.2, 40, 1.0, 0))
        for method, estimate in result.estimates.items():
            assert result.squared_errors[method] == (estimate - result.true_quantile) ** 2

    def test_methods_consume_no_randomness(self):
        # the drawn truth and sample-based estimate are identical whether or
        # not the Bayesian methods run
        prior = PriorBelief(0.0, 1.0)
        stream = trial_stream(13, 0.1, 50, 1.0, 0)
        all_methods = run_trial(0.1, 50, prior, ALL_METHODS, stream)
        sample_only = run_trial(0.1, 50, prior, (Method.SAMPLE,), stream)
        assert all_methods.true_quantile == sample_only.true_quantile
        assert all_methods.estimates[Method.SAMPLE] == sample_only.estimates[Method.SAMPLE]

    def test_huge_noise_variance_recovers_prior_mean(self):
        prior = PriorBelief(0.0, 1.0)
        result = run_trial(0.1, 50, prior, (Method.SAMPLE,), trial_stream(17, 0.1, 50, 1.0, 0))
        belief = posterior(prior, result.estimates[Method.SAMPLE], 1e12)
        assert abs(belief.mean - prior.mean) <= 1e-12 * max(1.0, abs(result.estimates[Method.SAMPLE]))

    def test_degenerate_prior_oracle(self):
        # prior variance 1e-20: the Bayesian estimates collapse onto the prior
        # mean and beat the raw sample quantile nearly always
        p, n, trials = 0.1, 10, 1000
        prior = PriorBelief(0.0, 1e-20)
        wins = 0
        for t in range(trials):
            result = run_trial(p, n, prior, ALL_METHODS, trial_stream(29, p, n, 1e-20, t), trial=t)
            assert abs(result.estimates[Method.BAYES_KNOWN] - prior.mean) < 1e-6
            assert abs(result.estimates[Method.BAYES_BOOTSTRAP] - prior.mean) < 1e-6
            if (
                result.squared_errors[Method.BAYES_KNOWN] <= result.squared_errors[Method.SAMPLE]
                and result.squared_errors[Method.BAYES_BOOTSTRAP] <= result.squared_errors[Method.SAMPLE]
            ):
                wins += 1
        assert wins >= 0.95 * trials


class TestRunExperiment:
    def test_single_trial_rmse_is_absolute_error(self):
        config = ExperimentConfig(
            prior_variances=(1.0,), p_values=(0.1,), sample_sizes=(20,), trials=1, seed=3
        )
        table = run_experiment(config)
        result = run_trial(0.1, 20, PriorBelief(0.0, 1.0), config.methods, trial_stream(3, 0.1, 20, 1.0, 0))
        for row in table.rows:
            assert row.rmse == pytest.approx(
                abs(result.estimates[row.method] - result.true_quantile), rel=1e-15
            )

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
    # run_experiment draws only the lowest order statistics; its CSV must be
    # byte-identical to the full-sample loop's
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
