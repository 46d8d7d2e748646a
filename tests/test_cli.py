import warnings

import numpy as np
import pytest

from tailquant.cli import main
from tailquant.experiment import CSV_HEADER


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out: str) -> dict:
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


@pytest.fixture
def hundred_file(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.permutation(np.arange(1.0, 101.0))
    path = tmp_path / "data.txt"
    path.write_text("# observations\n" + "\n".join(f"{v:g}" for v in values) + "\n")
    return path


class TestEstimate:
    def test_hundred_points_p_twenty_percent(self, capsys, hundred_file):
        code, out, err = run_cli(capsys, "estimate", str(hundred_file), "--p-value", "0.2")
        assert code == 0 and err == ""
        pairs = parse_kv(out)
        assert pairs["n"] == "100"
        assert pairs["rank"] == "20"
        assert float(pairs["quantile"]) == 20.0
        assert "bootstrap_variance" not in pairs

    def test_variance_mode_bootstrap(self, capsys, hundred_file):
        code, out, _ = run_cli(
            capsys, "estimate", str(hundred_file), "--p-value", "0.2",
            "--variance-mode", "bootstrap",
        )
        assert code == 0
        assert float(parse_kv(out)["bootstrap_variance"]) > 0.0

    def test_insufficient_samples_exit_two(self, capsys, tmp_path):
        path = tmp_path / "small.txt"
        path.write_text("\n".join(str(float(i)) for i in range(10)))
        code, out, err = run_cli(capsys, "estimate", str(path), "--p-value", "0.05")
        assert code == 2
        assert err.startswith("insufficient samples: need n >= 20")

    def test_malformed_input_exit_one(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\ntwo\n3.0\n")
        code, _, err = run_cli(capsys, "estimate", str(path), "--p-value", "0.5")
        assert code == 1
        assert "line 2" in err

    def test_non_finite_input_exit_one(self, capsys, tmp_path):
        path = tmp_path / "inf.txt"
        path.write_text("1.0\ninf\n")
        code, _, err = run_cli(capsys, "estimate", str(path), "--p-value", "0.5")
        assert code == 1

    def test_missing_file_exit_one(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "estimate", str(tmp_path / "nope.txt"), "--p-value", "0.5")
        assert code == 1

    def test_negligible_prior_recovers_sample_quantile(self, capsys, hundred_file):
        code, out, _ = run_cli(
            capsys, "estimate", str(hundred_file), "--p-value", "0.2",
            "--prior-mean", "0", "--prior-var", "1e15",
        )
        assert code == 0
        pairs = parse_kv(out)
        quantile = float(pairs["quantile"])
        posterior_mean = float(pairs["posterior_mean"])
        assert abs(posterior_mean - quantile) <= 1e-6 * abs(quantile)
        assert float(pairs["prior_weight"]) < 1e-6

    def test_tied_data_with_prior_is_the_zero_variance_limit(self, capsys, tmp_path):
        path = tmp_path / "tied.txt"
        path.write_text("5\n" * 200)
        code, out, err = run_cli(
            capsys, "estimate", str(path), "--p-value", "0.01",
            "--prior-mean", "0", "--prior-var", "1", "--variance-mode", "bootstrap",
        )
        assert (code, err) == (0, "")
        pairs = parse_kv(out)
        assert pairs["quantile"] == "5"
        assert pairs["bootstrap_variance"] == "0"
        assert pairs["posterior_mean"] == "5"
        assert pairs["posterior_variance"] == "0"
        assert pairs["prior_weight"] == "0"

    def test_prior_fusion_reported(self, capsys, hundred_file):
        code, out, _ = run_cli(
            capsys, "estimate", str(hundred_file), "--p-value", "0.2",
            "--prior-mean", "10", "--prior-var", "4",
        )
        assert code == 0
        pairs = parse_kv(out)
        assert 0.0 < float(pairs["prior_weight"]) < 1.0
        assert float(pairs["posterior_variance"]) < 4.0

    @pytest.mark.parametrize(
        "flags",
        [("--variance-mode", "bootstrap"), ("--prior-mean", "0", "--prior-var", "1")],
        ids=["bootstrap", "prior"],
    )
    def test_overflowing_variance_exit_one(self, capsys, tmp_path, flags):
        # squared deviations of 2e200 overflow; the error is one line, no warnings
        path = tmp_path / "huge.txt"
        path.write_text("-1e200\n" + "1e200\n" * 99)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "estimate", str(path), "--p-value", "0.01", *flags)
        assert (code, out) == (1, "")
        assert err.startswith("error: bootstrap variance is not finite")
        assert err.count("\n") == 1

    def test_failure_prints_nothing_to_stdout(self, capsys, tmp_path):
        # x_(2) - x_(1) overflows in a naive order check, and the bootstrap
        # variance overflows after the quantile is known: one stderr line only
        path = tmp_path / "limits.txt"
        path.write_text("-1.7e308\n1.7e308\n1.7e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "estimate", str(path), "--p-value", "0.5",
                "--prior-mean", "0", "--prior-var", "1",
            )
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("value", ["-1e3", "-1.5E-7", "-inf"])
    def test_negative_exponent_prior_mean(self, capsys, hundred_file, value):
        code, out, err = run_cli(
            capsys, "estimate", str(hundred_file), "--p-value", "0.2",
            "--prior-mean", value, "--prior-var", "4",
        )
        if value == "-inf":
            assert (code, out, err) == (1, "", "error: prior mean must be finite, got -inf\n")
        else:
            assert (code, err) == (0, "")
            pairs = {k: float(v) for k, v in parse_kv(out).items()}
            w, quantile = pairs["prior_weight"], pairs["quantile"]
            prior_mean = (pairs["posterior_mean"] - (1.0 - w) * quantile) / w
            assert prior_mean == pytest.approx(float(value), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("content", [None, "-1e200\n" + "1e200\n" * 99], ids=["missing", "overflow"])
    def test_prior_is_checked_before_the_file_is_read(self, capsys, tmp_path, content):
        # neither the missing file nor the overflowing bootstrap variance is reached
        path = tmp_path / "data.txt"
        if content is not None:
            path.write_text(content)
        code, out, err = run_cli(
            capsys, "estimate", str(path), "--p-value", "0.1",
            "--prior-mean", "0", "--prior-var", "0",
        )
        assert (code, out, err) == (1, "", "error: prior variance must be finite and > 0, got 0.0\n")

    def test_prior_flags_must_pair(self, capsys, hundred_file):
        code, _, err = run_cli(
            capsys, "estimate", str(hundred_file), "--p-value", "0.2", "--prior-mean", "0"
        )
        assert code == 1
        assert "together" in err


class TestWeights:
    def test_two_by_half(self, capsys):
        code, out, _ = run_cli(capsys, "weights", "--n", "2", "--p-value", "0.5")
        assert code == 0
        lines = out.strip().splitlines()
        first = lines[0].split(",")
        second = lines[1].split(",")
        assert first[0] == "1" and float(first[1]) == pytest.approx(0.75, abs=1e-12)
        assert second[0] == "2" and float(second[1]) == pytest.approx(0.25, abs=1e-12)
        assert lines[2].startswith("sum=")
        assert abs(float(lines[2].partition("=")[2]) - 1.0) <= 1e-10

    def test_single_observation_cannot_resolve_any_level(self, capsys):
        # floor(1 * p) = 0 for every p < 1, so n = 1 always exits 2
        code, _, err = run_cli(capsys, "weights", "--n", "1", "--p-value", "0.9")
        assert code == 2
        assert err.startswith("insufficient samples")

    def test_sum_normalized(self, capsys):
        code, out, _ = run_cli(capsys, "weights", "--n", "250", "--p-value", "0.01")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 251
        assert abs(float(lines[-1].partition("=")[2]) - 1.0) <= 1e-10

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_non_positive_n_exit_one(self, capsys, n):
        code, out, err = run_cli(capsys, "weights", "--n", n, "--p-value", "0.5")
        assert (code, out) == (1, "")
        assert err == f"error: sample size must be >= 1, got {n}\n"

    def test_a_fraction_that_does_not_converge_is_one_line(self, capsys):
        code, out, err = run_cli(capsys, "weights", "--n", "3000000", "--p-value", "0.5")
        assert (code, out) == (1, "")
        assert err == (
            "error: incomplete beta continued fraction did not converge within 500 iterations "
            "(a=1500001.0, b=1500000.0, x=0.5)\n"
        )

    def test_insufficient_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "weights", "--n", "5", "--p-value", "0.01")
        assert code == 2
        assert err.startswith("insufficient samples")


class TestSimulate:
    ARGS = (
        "simulate", "--p", "0.1", "--n", "10,25", "--sigma2", "1,0.01",
        "--trials", "2", "--seed", "7",
    )

    def test_writes_expected_grid(self, capsys, tmp_path):
        out_path = tmp_path / "rmse.csv"
        code, out, _ = run_cli(capsys, *self.ARGS, "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2 * 3
        assert f"wrote {out_path}" in out
        assert "p=0.1 n=10 sigma2=1" in out

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, *self.ARGS, "--out", str(a))[0] == 0
        assert run_cli(capsys, *self.ARGS, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_byte_identical_across_workers(self, capsys, tmp_path):
        a, b = tmp_path / "w1.csv", tmp_path / "w4.csv"
        assert run_cli(capsys, *self.ARGS, "--workers", "1", "--out", str(a))[0] == 0
        assert run_cli(capsys, *self.ARGS, "--workers", "4", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_one(self, capsys, tmp_path, workers):
        out_path = tmp_path / "w.csv"
        code, _, err = run_cli(capsys, *self.ARGS, "--workers", workers, "--out", str(out_path))
        assert code == 1
        assert err == f"error: workers must be an integer >= 1, got {workers}\n"
        assert not out_path.exists()

    def test_negative_exponent_prior_mean(self, capsys, tmp_path):
        out_path = tmp_path / "neg.csv"
        code, _, err = run_cli(
            capsys, "simulate", "--p", "0.1", "--n", "100", "--sigma2", "1",
            "--prior-mean", "-1e1", "--trials", "2", "--out", str(out_path),
        )
        assert (code, err) == (0, "")
        assert out_path.exists()

    @pytest.mark.parametrize("p", ["-1e-3", "-1e-3,0.01"])
    def test_negative_exponent_p_is_a_config_error(self, capsys, tmp_path, p):
        code, _, err = run_cli(
            capsys, "simulate", "--p", p, "--n", "100", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert err == "error: p_values must lie strictly in (0, 1), got -0.001\n"

    @pytest.mark.parametrize(
        "flags,fault",
        [(("--prior-mean", "-1e3"), "overflows"), (("--sigma2", "1e6"), "underflows to 0")],
        ids=["prior-mean", "sigma2"],
    )
    def test_unrepresentable_model_exit_one(self, capsys, tmp_path, flags, fault):
        # a true quantile near -1000 or +1000 has no finite positive rate
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys, "simulate", "--p", "0.1", "--n", "100", *flags,
            "--trials", "5", "--out", str(out_path),
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: no log-exponential model has x_p = ")
        assert err.endswith(f"the rate {fault}\n") and err.count("\n") == 1
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "flag,value",
        [("--n", "10,abc"), ("--trials", "1.5"), ("--seed", "x"), ("--methods", "sample,oracle")],
    )
    def test_bad_flag_value_is_one_line(self, capsys, tmp_path, flag, value):
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "simulate", flag, value, "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: bad value for {flag}: ") and err.count("\n") == 1
        assert not out_path.exists()

    def test_config_error_names_pair(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--p", "0.001", "--n", "10", "--trials", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "p=0.001, n=10" in err

    def test_method_subset(self, capsys, tmp_path):
        out_path = tmp_path / "subset.csv"
        code, _, _ = run_cli(
            capsys, *self.ARGS, "--methods", "sample,bayes_known", "--out", str(out_path)
        )
        assert code == 0
        body = out_path.read_text()
        assert "bayes_bootstrap" not in body
        assert len(body.splitlines()) == 1 + 2 * 2 * 2

    def test_flags_override_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p_values = 0.1\nsample_sizes = 10\nprior_variances = 1\ntrials = 2\nseed = 5\n")
        out_path = tmp_path / "o.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--config", str(cfg), "--trials", "3", "--out", str(out_path)
        )
        assert code == 0
        assert out_path.read_text().splitlines()[1].split(",")[5] == "3"

    def test_unknown_config_key_exit_one(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "unknown config key" in err


class TestParsing:
    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--p-value", "0.5"])  # missing data file
        assert exc.value.code == 1

    def test_unknown_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1


@pytest.mark.parametrize(
    "content", ["", "\n\n", " \t\n   \n", "# only a comment\n"],
    ids=["empty", "blank-only", "whitespace-only", "comment-only"],
)
def test_a_file_without_observations_is_one_line_exit_one(capsys, tmp_path, content):
    path = tmp_path / "none.txt"
    path.write_text(content, encoding="utf-8")
    code, out, err = run_cli(capsys, "estimate", str(path), "--p-value", "0.5")
    assert (code, out, err) == (1, "", f"error: no observations found in {path}\n")
