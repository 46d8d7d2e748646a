"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The heavyweight Monte Carlo cells are shared
between criteria through module-scoped fixtures.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from tailquant.bayes import PriorBelief, posterior
from tailquant.bootstrap import bootstrap_variance, bootstrap_weights
from tailquant.cli import main
from tailquant.distributions import RngStream, asymptotic_variance, rate_for_quantile
from tailquant.estimators import sample_quantile
from tailquant.experiment import ALL_METHODS, ExperimentConfig, Method, run_experiment

SEED = 20250809


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


@pytest.fixture(scope="module")
def fig1_cells():
    """p=0.01, sigma^2=0.01 cells at n in {100, 1e4, 1e5}, 1000 trials."""
    config = ExperimentConfig(
        prior_mean=0.0,
        prior_variances=(0.01,),
        p_values=(0.01,),
        sample_sizes=(100, 10_000, 100_000),
        trials=1000,
        seed=SEED,
        methods=ALL_METHODS,
    )
    table = run_experiment(config, workers=3)
    return {(row.n, row.method): row.rmse for row in table.rows}


def test_criterion_01_posterior_algebra():
    rng = np.random.default_rng(SEED)
    worst_precision = 0.0
    for _ in range(10_000):
        mu = float(rng.uniform(-50.0, 50.0))
        xhat = float(rng.uniform(-50.0, 50.0))
        s2 = float(10.0 ** rng.uniform(-6.0, 6.0))
        sn2 = float(10.0 ** rng.uniform(-6.0, 6.0))
        belief = posterior(PriorBelief(mu, s2), xhat, sn2)
        assert belief.variance < min(s2, sn2)
        target = 1.0 / s2 + 1.0 / sn2
        worst_precision = max(worst_precision, abs(1.0 / belief.variance - target) / target)
        w = sn2 / (s2 + sn2)
        assert belief.prior_weight == w
        assert belief.mean == w * mu + (1.0 - w) * xhat
        lo, hi = min(mu, xhat), max(mu, xhat)
        slack = 1e-12 * (abs(lo) + abs(hi) + 1.0)
        assert lo - slack <= belief.mean <= hi + slack
    _report(
        1, "posterior-algebra",
        worst_precision <= 1e-12,
        f"10^4 tuples, worst precision drift {worst_precision:.2e}",
    )


def test_criterion_02_weight_normalization():
    worst = 0.0
    checked = 0
    for n in (10, 100, 1_000, 10_000, 100_000):
        for p in (0.1, 0.01, 0.001):
            r = math.floor(n * p)
            if r < 1:
                continue
            total = float(bootstrap_weights(n, r).w.sum())
            worst = max(worst, abs(total - 1.0))
            checked += 1
    _report(
        2, "weight-normalization",
        worst <= 1e-10,
        f"{checked} (n, p) pairs, worst |sum - 1| = {worst:.2e}",
    )


def test_criterion_03_small_n_quadrature_oracle():
    worst = 0.0
    for n in range(1, 13):
        for r in range(1, n + 1):
            ours = bootstrap_weights(n, r).w
            coeff = r * math.comb(n, r)
            for i in range(1, n + 1):
                cell, _ = integrate.quad(
                    lambda y: y ** (r - 1) * (1.0 - y) ** (n - r),
                    (i - 1) / n, i / n, epsabs=1e-12, epsrel=1e-12,
                )
                worst = max(worst, abs(ours[i - 1] - coeff * cell))
    hand = bootstrap_weights(2, 1).w
    hand_ok = abs(hand[0] - 0.75) <= 1e-12 and abs(hand[1] - 0.25) <= 1e-12
    _report(
        3, "small-n-bootstrap-oracle",
        worst <= 1e-9 and hand_ok,
        f"all n <= 12, worst |w - quadrature| = {worst:.2e}",
    )


def test_criterion_04_asymptotic_variance_of_sample_quantile():
    p, n, replicates = 0.1, 10_000, 2000
    model = rate_for_quantile(0.0, p)
    target = asymptotic_variance(p, n, model.pdf(0.0))
    root = RngStream(SEED, (4,))
    estimates = np.empty(replicates)
    for t in range(replicates):
        sample = model.sample(n, root.child(t))
        estimates[t] = sample_quantile(sample, p)
    relative = abs(float(np.var(estimates, ddof=1)) - target) / target
    _report(
        4, "asymptotic-variance",
        relative <= 0.10,
        f"2000 replicates at (p=0.1, n=1e4), relative deviation {relative:.3f}",
    )


def test_criterion_05_bootstrap_error_shrinks_with_n():
    p, replicates = 0.1, 200
    root = RngStream(SEED, (5,))
    medians = []
    for n in (100, 1_000, 10_000):
        model = rate_for_quantile(0.0, p)
        target = asymptotic_variance(p, n, model.pdf(0.0))
        errors = np.empty(replicates)
        for t in range(replicates):
            sample = model.sample(n, root.child(n, t))
            errors[t] = abs(bootstrap_variance(sample, p) - target) / target
        medians.append(float(np.median(errors)))
    decreasing = medians[0] > medians[1] > medians[2]
    _report(
        5, "bootstrap-error-trend",
        decreasing,
        "median rel err " + " -> ".join(f"{m:.3f}" for m in medians),
    )


def test_criterion_06_low_n_prior_advantage(fig1_cells):
    ratio = fig1_cells[(100, Method.BAYES_KNOWN)] / fig1_cells[(100, Method.SAMPLE)]
    _report(
        6, "fig1-low-n-regime",
        ratio <= 0.3,
        f"rmse ratio bayes_known/sample = {ratio:.4f} at n=100",
    )


def test_criterion_07_large_n_convergence(fig1_cells):
    ratio = fig1_cells[(100_000, Method.BAYES_KNOWN)] / fig1_cells[(100_000, Method.SAMPLE)]
    _report(
        7, "fig1-convergence-regime",
        0.3 <= ratio <= 1.05,
        f"rmse ratio bayes_known/sample = {ratio:.4f} at n=1e5",
    )


def test_criterion_08_bootstrap_tracks_known_variance(fig1_cells):
    details = []
    ok = True
    for n in (10_000, 100_000):
        known = fig1_cells[(n, Method.BAYES_KNOWN)]
        boot = fig1_cells[(n, Method.BAYES_BOOTSTRAP)]
        rel = abs(boot - known) / known
        ok = ok and rel <= 0.20
        details.append(f"n={n}: {rel:.4f}")
    _report(8, "bootstrap-bayes-tracking", ok, ", ".join(details))


def test_criterion_09_wide_prior_similarity():
    # trial count is not pinned by the criterion; 5000 trials puts the Monte
    # Carlo error of the ratio well below its ~0.005 distance from 1.0
    config = ExperimentConfig(
        prior_mean=0.0,
        prior_variances=(1.0,),
        p_values=(0.01,),
        sample_sizes=(10_000,),
        trials=5000,
        seed=SEED,
        methods=(Method.SAMPLE, Method.BAYES_KNOWN),
    )
    rows = {row.method: row.rmse for row in run_experiment(config).rows}
    ratio = rows[Method.BAYES_KNOWN] / rows[Method.SAMPLE]
    _report(
        9, "wide-prior-similarity",
        0.5 <= ratio <= 1.0,
        f"rmse ratio bayes_known/sample = {ratio:.4f} at sigma^2=1, n=1e4",
    )


def test_criterion_10_simulate_determinism(tmp_path, capsys):
    argv = [
        "simulate", "--p", "0.1", "--n", "10,30", "--sigma2", "1,0.01",
        "--trials", "5", "--seed", "7",
    ]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "w2.csv", "w4.csv")]
    assert main(argv + ["--out", str(paths[0])]) == 0
    assert main(argv + ["--out", str(paths[1])]) == 0
    assert main(argv + ["--workers", "2", "--out", str(paths[2])]) == 0
    assert main(argv + ["--workers", "4", "--out", str(paths[3])]) == 0
    capsys.readouterr()
    blobs = [path.read_bytes() for path in paths]
    identical = all(blob == blobs[0] for blob in blobs)
    _report(
        10, "simulate-determinism",
        identical,
        f"4 runs x {len(blobs[0])} bytes, reruns and worker counts agree",
    )


def test_criterion_11_distribution_round_trips():
    model = rate_for_quantile(-1.0, 0.05)
    worst_q = 0.0
    for q in np.geomspace(1e-6, 0.5, 80).tolist() + (1.0 - np.geomspace(1e-6, 0.5, 80)).tolist():
        worst_q = max(worst_q, abs(model.cdf(model.quantile(float(q))) - q))
    worst_cal = 0.0
    for x_p in np.linspace(-5.0, 5.0, 21):
        for p in (1e-6, 1e-4, 1e-2, 0.1, 0.5, 0.9, 0.999):
            calibrated = rate_for_quantile(float(x_p), p)
            expected = -math.log1p(-p) * (1.0 - p)
            worst_cal = max(worst_cal, abs(calibrated.pdf(float(x_p)) - expected))
    _report(
        11, "distribution-round-trips",
        worst_q <= 1e-12 and worst_cal <= 1e-12,
        f"worst |cdf(quantile(q)) - q| = {worst_q:.2e}, worst calibration drift = {worst_cal:.2e}",
    )
