import gzip
import io
import os
import resource
import subprocess
import sys
import urllib.request
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tailquant
import tailquant.cli as cli
from tailquant.bootstrap import bootstrap_weights
from tailquant.cli import main
from tailquant.errors import DomainError
from tailquant.estimators import quantile_rank
from tailquant.experiment import CSV_HEADER, _fmt


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

    def test_variances_summing_past_the_float_range(self, capsys, tmp_path):
        # bootstrap variance ~4.6e307 plus prior variance 1.6e308 overflows;
        # the posterior must still be the exact update, not weight 0
        path = tmp_path / "wide.txt"
        path.write_text("-1e154\n" * 50 + "0\n" * 50)
        code, out, err = run_cli(
            capsys, "estimate", str(path), "--p-value", "0.5",
            "--prior-mean", "0", "--prior-var", "1.6e308", "--variance-mode", "bootstrap",
        )
        assert (code, err) == (0, "")
        pairs = parse_kv(out)
        s2, sn2 = Fraction(1.6e308), Fraction(float(pairs["bootstrap_variance"]))
        assert float(pairs["quantile"]) == -1e154 and sn2 > 1e307
        weight = sn2 / (s2 + sn2)
        assert float(pairs["prior_weight"]) == pytest.approx(float(weight), rel=1e-15)
        assert float(pairs["posterior_variance"]) == pytest.approx(float(s2 * weight), rel=1e-15)
        assert float(pairs["posterior_mean"]) == pytest.approx(float((1 - weight) * Fraction(-1e154)), rel=1e-15)

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


# bound on the peak resident memory of `weights --n 10000000 --p-value 0.5`,
# set once: the chunked writes measured 40 MB, the list of all lines 915 MB
PEAK_MB_AT_1E7 = 100


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

    def test_a_central_rank_at_3e6_prints_its_weights(self, capsys):
        code, out, err = run_cli(capsys, "weights", "--n", "3000000", "--p-value", "0.5")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 3_000_001
        assert abs(float(lines[-1].partition("=")[2]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n,p", [(2, 0.5), (250, 0.01), (10**5, 0.001), (10**6, 0.5)])
    def test_output_has_the_bytes_of_the_per_line_loop(self, capsys, n, p):
        weights = bootstrap_weights(n, quantile_rank(n, p))
        expected = io.StringIO()
        for i, w in enumerate(weights.w, start=1):
            print(f"{i},{_fmt(w)}", file=expected)
        print(f"sum={_fmt(weights.w.sum())}", file=expected)
        code, out, err = run_cli(capsys, "weights", "--n", str(n), "--p-value", str(p))
        assert (code, err) == (0, "")
        assert out == expected.getvalue()

    def test_memory_does_not_grow_with_the_lines_at_1e7(self):
        # the lines are written in chunks; a child process measures the peak
        # resident memory of its own child, the `weights` run, alone
        script = (
            "import resource, subprocess, sys; "
            "subprocess.run([sys.executable, '-m', 'tailquant.cli', 'weights', '--n', '10000000', "
            "'--p-value', '0.5'], stdout=subprocess.DEVNULL, check=True); "
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(tailquant.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120, check=True)
        peak_mb = int(proc.stdout) / 1024  # ru_maxrss is in KiB on Linux
        assert peak_mb < PEAK_MB_AT_1E7, f"peak resident memory {peak_mb:.0f} MB"

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
        [
            (("--prior-mean", "-1e3"), "overflows"),
            (("--prior-mean", "1e3"), "underflows to 0"),
            # the default seed's first x_p beyond the range is about -761
            (("--sigma2", "1e6"), "overflows"),
        ],
        ids=["prior-mean", "positive-prior-mean", "sigma2"],
    )
    def test_unrepresentable_model_exit_one(self, capsys, tmp_path, flags, fault):
        # a true quantile near -1000 or +1000 has no finite positive rate: the
        # rate overflows below about -710 and underflows to 0 above about 740
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys, "simulate", "--p", "0.1", "--n", "100", *flags,
            "--trials", "5", "--out", str(out_path),
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: no log-exponential model has x_p = ")
        assert err.endswith(f"the rate {fault}\n") and err.count("\n") == 1
        assert not out_path.exists()

    def test_a_truth_beyond_the_range_of_exp_with_a_representable_model(self, capsys, tmp_path):
        # x_p = 720: e^x_p overflows and the rate is subnormal, but the model
        # exists and its density at x_p is positive, so every method runs
        out_path = tmp_path / "x.csv"
        code, _, err = run_cli(
            capsys, "simulate", "--prior-mean", "720", "--sigma2", "1e-6", "--p", "0.01",
            "--n", "100", "--trials", "2", "--out", str(out_path),
        )
        assert (code, err) == (0, "")
        rmses = [float(line.split(",")[4]) for line in out_path.read_text().splitlines()[1:]]
        assert len(rmses) == 3 and all(0.0 < v < 10.0 for v in rmses)

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

    def test_config_keys_are_replaced_before_they_are_checked(self, capsys, tmp_path):
        # n = 10 cannot resolve the default p-values, but it can resolve the flag's
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sample_sizes = 10\n")
        out_path = tmp_path / "o.csv"
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(cfg), "--p", "0.5", "--trials", "2",
            "--out", str(out_path),
        )
        assert (code, err) == (0, "")
        assert {line.split(",")[:2] == ["0.5", "10"] for line in out_path.read_text().splitlines()[1:]} == {True}

    def test_duplicate_grid_values_make_one_cell(self, capsys, tmp_path):
        # each list keeps its first occurrence of a value, 1 and 1.0 alike
        once, twice = tmp_path / "once.csv", tmp_path / "twice.csv"
        rest = ("--trials", "2", "--methods", "sample")
        code, out, _ = run_cli(
            capsys, "simulate", "--p", "0.1,0.1", "--n", "10,10", "--sigma2", "1,1.0", *rest, "--out", str(twice)
        )
        assert code == 0
        assert len(twice.read_text().splitlines()) == 2
        assert out.count("sample=") == 1
        assert run_cli(capsys, "simulate", "--p", "0.1", "--n", "10", "--sigma2", "1", *rest, "--out", str(once))[0] == 0
        assert twice.read_bytes() == once.read_bytes()

    def test_config_file_may_start_with_a_byte_order_mark(self, capsys, tmp_path):
        text = b"p_values = 0.1\nsample_sizes = 10\nprior_variances = 1\ntrials = 2\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        outputs = []
        for cfg in (plain, marked):
            out_path = tmp_path / f"{cfg.stem}.csv"
            code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_path))
            assert (code, err) == (0, "")
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("comment", ["# note\u2028seed = 7", "# note\x85trials = 0"],
                             ids=["line-separator", "next-line"])
    def test_a_config_line_ends_only_at_lf_cr_or_crlf(self, capsys, tmp_path, comment):
        # str.splitlines would also break at U+2028 and U+0085, and read the rest of
        # the comment as a key
        text = "p_values = 0.5\nsample_sizes = 4\ntrials = 2\n"
        outputs = []
        for name, body in (("plain", text), ("commented", f"{comment}\n{text}")):
            cfg, out_path = tmp_path / f"{name}.cfg", tmp_path / f"{name}.csv"
            cfg.write_text(body, encoding="utf-8")
            code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_path))
            assert (code, err) == (0, "")
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]
        cfg.write_text(f"{comment}\nbogus = 1\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out_path))
        assert (code, err) == (1, "error: unknown config key 'bogus' on line 2\n")

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


@pytest.mark.parametrize("content", ["", "\n\n"], ids=["empty", "blank-only"])
def test_no_warning_of_the_numpy_parse_escapes(capsys, tmp_path, content):
    # numpy's `fromiter` gathers the numbers and must not warn on a file with no data;
    # the suite turns warnings into errors, which would hide one that reached a user's stderr
    path = tmp_path / "none.txt"
    path.write_text(content, encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, _ = run_cli(capsys, "estimate", str(path), "--p-value", "0.5")
    assert (code, caught) == (1, [])


def test_a_byte_order_mark_starts_a_file_but_is_malformed_after(capsys, tmp_path):
    plain, marked, inside = tmp_path / "plain.txt", tmp_path / "marked.txt", tmp_path / "inside.txt"
    plain.write_bytes(b"1.0\n2\n3\n")
    marked.write_bytes(b"\xef\xbb\xbf1.0\n2\n3\n")
    inside.write_bytes(b"1.0\n\xef\xbb\xbf2\n3\n")
    expected = run_cli(capsys, "estimate", str(plain), "--p-value", "0.5")
    assert expected[0] == 0
    assert run_cli(capsys, "estimate", str(marked), "--p-value", "0.5") == expected
    code, out, err = run_cli(capsys, "estimate", str(inside), "--p-value", "0.5")
    assert (code, out, err) == (1, "", "error: malformed input at line 2: '\\ufeff2'\n")


def reference_read(path) -> np.ndarray:
    """The line loop that parses a file when numpy does not, as a float64 array."""
    values = []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise DomainError(f"malformed input at line {lineno}: {line!r}") from None
    if not values:
        raise DomainError(f"no observations found in {path}")
    return np.array(values)


def outcome(read, path):
    """The bytes of the float64 values read, or the type and text of the error."""
    try:
        return np.asarray(read(path), dtype=np.float64).tobytes()
    except (DomainError, ValueError) as exc:
        return type(exc), str(exc)


PARSER_EDGES = {
    "crlf": "1.5\r\n-2.25\r\n",
    "bare-cr": "1.5\r-2.25\r",
    "tabs-and-padding": "\t1.5  \n   -2.25\t\n",
    "underscore": "1_000\n2\n",
    "arabic-indic-digits": "\u0661\u0662\n3\n",
    "bom": "\ufeff1.5\n2\n",
    "bom-mid-file": "1.5\n\ufeff2\n",
    "two-boms": "\ufeff\ufeff1.5\n",
    "cr-before-a-number": "\r1\n2\n",
    "cr-cr-lf": "1\r\r\n2\n",
    "trailing-comment": "1.5 # c\n",
    "comment-lines": "# c\n1\n# d\n2\n",
    "two-numbers": "1 2\n",
    "one-row-of-two-fields": "1,2\n",
    "two-rows-of-two-fields": "1,2\n3,4\n",
    "trailing-comma": "1,\n",
    "nul": "1\x00\n2\n",
    "next-line": "1\x85\n\x852\n",
    "non-finite": "inf\nnan\ninfinity\n-nan\n+INF\n+nan\n",
    "overflow": "1e400\n",
    "underflow": "1e-400\n",
    "negative-zero": "-0.0\n",
    "subnormal": "5e-324\n2.2250738585072009e-308\n",
    "no-final-newline": "1\n2",
    "blank-lines": "\n1\n\n\n2\n\n",
    "whitespace-line": "1\n   \n2\n",
    "empty": "",
    "blank-only": "\n\n\n",
    "whitespace-only": " \t\n  \n",
    "comment-only": "# nothing here\n#\n",
    "hex": "0x10\n",
    "quoted": '"1"\n',
}


@pytest.mark.parametrize("content", PARSER_EDGES.values(), ids=PARSER_EDGES.keys())
def test_parser_matches_the_line_loop(tmp_path, content):
    path = tmp_path / "edge.txt"
    path.write_text(content, encoding="utf-8", newline="")
    assert outcome(cli._read_observations, path) == outcome(reference_read, path)


@pytest.mark.parametrize(
    "content",
    [b"1.5\n\xe9\n", b"1.5\n" * 5000 + b"\xe9\n", b"x\n" + b"1\n" * 5000 + b"\xe9\n",
     gzip.compress(b"1\n2\n")],
    ids=["latin1", "past-the-first-chunk", "malformed-line-in-an-earlier-chunk", "gzip"],
)
def test_parser_matches_the_line_loop_on_bytes_that_are_not_utf8(tmp_path, content):
    # the decoding error names a position within the chunk read, as reading the file does
    path = tmp_path / "data.txt.gz"
    path.write_bytes(content)
    assert outcome(cli._read_observations, path) == outcome(reference_read, path)


# every byte, the Unicode spaces beyond ASCII, which str.strip removes and bytes.strip keeps,
# and the byte-order mark; U+001C-U+001F are the bytes 0x1C-0x1F
PADS = [bytes([b]) for b in range(256)] + [chr(c).encode() for c in (
    0x85, 0xA0, 0x1680, *range(0x2000, 0x200B), 0x2028, 0x2029, 0x3000, 0xFEFF)]


def test_every_pad_is_read_as_the_line_loop_reads_it(tmp_path):
    # `float` reads the bytes of a line only when they hold an ASCII number in ASCII
    # whitespace, which the line loop decodes and strips to the same text
    path = tmp_path / "padded.txt"
    for pad in PADS:
        for number in (b"-1.5", b"2e3", b"inf"):
            for line in (pad + number, number + pad, number[:1] + pad + number[1:], pad):
                path.write_bytes(b"1\n" + line + b"\n3\n")
                assert outcome(cli._read_observations, path) == outcome(reference_read, path), line


@pytest.mark.parametrize("name", ["data.txt", "http://localhost:9/data.txt"])
def test_a_missing_file_is_not_looked_for_elsewhere(capsys, tmp_path, monkeypatch, name):
    # neither fetched as a URL nor replaced by a compressed file of the same stem
    monkeypatch.setattr(urllib.request, "urlopen", lambda *args, **kwargs: pytest.fail("fetched"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.txt.gz").write_bytes(gzip.compress(b"1\n2\n"))
    code, out, err = run_cli(capsys, "estimate", name, "--p-value", "0.5")
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: {name!r}\n"


@pytest.mark.parametrize(
    "content", ["1\n2\n3\n", "# a\n1\n2\n3\n", "1\n2\n3\n \n"],
    ids=["plain", "comment", "whitespace-line"],
)
def test_a_pipe_is_read_once(capsys, tmp_path, content):
    path = tmp_path / "data.txt"
    path.write_text(content)
    expected = run_cli(capsys, "estimate", str(path), "--p-value", "0.5")
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, content.encode())
        os.close(write_end)
        assert run_cli(capsys, "estimate", f"/dev/fd/{read_end}", "--p-value", "0.5") == expected
    finally:
        os.close(read_end)


@pytest.mark.parametrize(
    "content",
    ["1.5\n-2.25\n", "1.5\r\n-2.25\r\n", "\n 1.5\t\n\n-2.25", "\ufeff7\n", "7\n",
     "1\n \t\n2\n", "1\n" * 3000 + " \t\n"],
    ids=["plain", "crlf", "padded", "bom", "one-value", "whitespace-line", "late-whitespace-line"],
)
def test_well_formed_files_never_reach_the_line_loop(tmp_path, monkeypatch, content):
    path = tmp_path / "data.txt"
    path.write_text(content, encoding="utf-8", newline="")
    expected = reference_read(path).tobytes()
    # the line loop is the one reader that decodes the file
    monkeypatch.setattr(cli.io, "TextIOWrapper",
                        lambda *args, **kwargs: pytest.fail("the line loop ran"))
    assert cli._read_observations(path).tobytes() == expected


padding = st.text(alphabet=" \t", max_size=3)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    lines=st.lists(
        st.tuples(st.floats(allow_nan=False, allow_infinity=False), padding, padding,
                  st.integers(0, 2)),
        min_size=1, max_size=30,
    ),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
)
def test_padded_reprs_parse_to_the_same_bits(tmp_path, lines, newline):
    text = "".join(f"{left}{value!r}{right}" + newline * (1 + blanks)
                   for value, left, right, blanks in lines)
    path = tmp_path / "floats.txt"
    path.write_text(text, encoding="utf-8", newline="")
    parsed = np.asarray(cli._read_observations(path))
    assert parsed.tobytes() == np.array([value for value, *_ in lines]).tobytes()
    assert parsed.tobytes() == reference_read(path).tobytes()


def _address_space_of_3_gb():
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


@pytest.mark.parametrize(
    "argv",
    [
        ["weights", "--n", "100000000000", "--p-value", "1e-9"],
        ["simulate", "--p", "0.01", "--n", "1000000000", "--sigma2", "1", "--trials", "1",
         "--methods", "sample", "--out", "{out}"],
    ],
    ids=["weights", "simulate"],
)
def test_a_size_too_large_for_memory_is_one_line(tmp_path, argv):
    argv = [arg.format(out=tmp_path / "out.csv") for arg in argv]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(tailquant.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "tailquant.cli", *argv], capture_output=True, text=True,
        env=env, preexec_fn=_address_space_of_3_gb, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: Unable to allocate") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv,names",
    [
        (["weights", "--n", "1" + "0" * 400, "--p-value", "0.05"], "sample size"),
        (["simulate", "--p", "0.1", "--n", "1" + "0" * 400, "--trials", "1", "--out", "{out}"],
         "sample size"),
        (["simulate", "--p", "1e-300", "--trials", "1", "--out", "{out}"], "p = 1e-300"),
    ],
    ids=["weights", "simulate", "simulate-default-grid"],
)
def test_a_size_larger_than_any_array_is_one_line(capsys, tmp_path, argv, names):
    argv = [arg.format(out=tmp_path / "out.csv") for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and len(err) <= 201
    assert err.startswith("error: ") and names in err

@pytest.mark.parametrize("p", ["1e-300", "5e-324"])
@pytest.mark.parametrize(
    "argv,code,message",
    [
        (["estimate", "{data}", "--p-value", "{p}"], 2, "insufficient samples: "),
        (["weights", "--n", "5", "--p-value", "{p}"], 2, "insufficient samples: "),
        (["simulate", "--p", "{p}", "--n", "100", "--out", "{out}"], 1, "error: "),
    ],
    ids=["estimate", "weights", "simulate"],
)
def test_a_level_too_small_for_any_size_ends_in_one_line(tmp_path, argv, code, message, p):
    # a child process, so that a hang in the smallest-size search fails the
    # test at its timeout instead of stalling the suite
    data = tmp_path / "five.txt"
    data.write_text("1\n2\n3\n4\n5\n", encoding="utf-8")
    argv = [arg.format(data=data, p=p, out=tmp_path / "out.csv") for arg in argv]
    env = {**os.environ, "PYTHONPATH": str(Path(tailquant.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "tailquant.cli", *argv], capture_output=True, text=True,
        env=env, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1
