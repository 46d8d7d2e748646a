"""Every scalar that enters from outside is read the same way at each boundary.

A numpy scalar is accepted wherever its Python counterpart is, and is stored
or used as the Python number, so no numpy arithmetic reaches the results.
Anything that is not a number keeps the error text of its site.
"""

import numpy as np
import pytest

from tailquant.bayes import PriorBelief, posterior
from tailquant.bootstrap import bootstrap_weights
from tailquant.distributions import LogExponential, RngStream
from tailquant.errors import TailquantError
from tailquant.estimators import quantile_rank, sample_quantile
from tailquant.experiment import ExperimentConfig, run_experiment
from tailquant.special_functions import regularized_incomplete_beta

SMALL = ExperimentConfig(p_values=(0.1,), sample_sizes=(10,), prior_variances=(1.0,), trials=2)


def config(**lists) -> ExperimentConfig:
    return ExperimentConfig(**{"p_values": (0.1,), "sample_sizes": (100,), "trials": 2, **lists})

# id -> (call on the scalar, the Python scalar, its numpy twin, error text for a non-number)
SITES = {
    "posterior-variance": (
        lambda v: posterior(PriorBelief(0.0, 1.0), 1.0, v).mean, 0.5, np.float32(0.5),
        "sample variance must be finite and >= 0, got {!r}",
    ),
    "posterior-xhat": (
        lambda v: posterior(PriorBelief(0.0, 1.0), v, 0.5).mean, 0.5, np.float32(0.5),
        "sample quantile must be finite, got {!r}",
    ),
    "prior-mean": (
        lambda v: PriorBelief(v, 1.0).mean, 0.5, np.float32(0.5),
        "prior mean must be finite, got {!r}",
    ),
    "prior-variance": (
        lambda v: PriorBelief(0.0, v).variance, 0.5, np.float32(0.5),
        "prior variance must be finite and > 0, got {!r}",
    ),
    "sample_quantile-p": (
        lambda v: sample_quantile(np.arange(1.0, 101.0), v), 0.25, np.float32(0.25),
        "probability level must satisfy 0 < p < 1, got {!r}",
    ),
    "quantile_rank-n": (
        lambda v: quantile_rank(v, 0.25), 100, np.int64(100),
        "sample size must be an integer >= 1, got {!r}",
    ),
    "bootstrap_weights-n": (
        lambda v: bootstrap_weights(v, 5).window.tolist(), 100, np.int64(100),
        "sample size must be an integer >= 1, got {!r}",
    ),
    "bootstrap_weights-r": (
        lambda v: bootstrap_weights(100, v).window.tolist(), 5, np.int64(5),
        "rank must be an integer, got {!r}",
    ),
    "quantile_rank-p": (
        lambda v: quantile_rank(100, v), 0.25, np.float32(0.25),
        "probability level must satisfy 0 < p < 1, got {!r}",
    ),
    "rate": (
        lambda v: LogExponential(v).rate, 1.0, np.float32(1.0),
        "rate must be finite and > 0, got {!r}",
    ),
    "sample-n": (
        lambda v: LogExponential(1.0).sample(v, RngStream(1)).tolist(), 5, np.int64(5),
        "sample size must be an integer >= 1, got {!r}",
    ),
    "lowest-k": (
        lambda v: LogExponential(1.0).lowest(50, v, RngStream(3)).tolist(), 5, np.int64(5),
        "k must be an integer in 1..50, got {!r}",
    ),
    "seed": (
        lambda v: RngStream(v).seed, 3, np.uint64(3),
        "seed must be an unsigned 64-bit integer, got {!r}",
    ),
    "beta-a": (
        lambda v: regularized_incomplete_beta(0.3, v, 2.0), 0.5, np.float32(0.5),
        "beta shape a must be finite and > 0, got {!r}",
    ),
    "beta-b": (
        lambda v: regularized_incomplete_beta(0.3, 2.0, v), 0.5, np.float32(0.5),
        "beta shape b must be finite and > 0, got {!r}",
    ),
    "config-trials": (
        lambda v: ExperimentConfig(trials=v).trials, 5, np.int64(5),
        "trials must be an integer >= 1, got {!r}",
    ),
    "config-seed": (
        lambda v: ExperimentConfig(seed=v).seed, 5, np.int64(5),
        "seed must be an unsigned 64-bit integer, got {!r}",
    ),
    "config-sample_sizes": (
        lambda v: config(sample_sizes=(v,)).sample_sizes[0], 100, np.int64(100),
        "sample_sizes must be integers >= 1, got {!r}",
    ),
    "config-p_values": (
        lambda v: config(p_values=(v,)).p_values[0], 0.25, np.float32(0.25),
        "p_values must lie strictly in (0, 1), got {!r}",
    ),
    "config-prior_variances": (
        lambda v: config(prior_variances=(v,)).prior_variances[0], 0.5, np.float32(0.5),
        "prior_variances must be finite and > 0, got {!r}",
    ),
    "workers": (
        lambda v: run_experiment(SMALL, workers=v).to_csv(), 2, np.int64(2),
        "workers must be an integer >= 1, got {!r}",
    ),
}


@pytest.mark.parametrize("site", SITES)
def test_numpy_scalar_reads_as_the_python_number(site):
    call, plain, twin, _ = SITES[site]
    expected = call(plain)
    got = call(twin)
    assert type(got) is type(expected)
    assert got == expected


@pytest.mark.parametrize("bad", ["1", None])
@pytest.mark.parametrize("site", SITES)
def test_non_number_keeps_the_error_text(site, bad):
    call, _, _, message = SITES[site]
    with pytest.raises(TailquantError) as exc:
        call(bad)
    assert str(exc.value) == message.format(bad)


@pytest.mark.parametrize(
    "site,value", [("quantile_rank-n", 100.7), ("bootstrap_weights-n", 100.0), ("bootstrap_weights-r", 5.5)]
)
def test_a_float_where_an_integer_is_read_keeps_the_error_text(site, value):
    call, _, _, message = SITES[site]
    with pytest.raises(TailquantError) as exc:
        call(value)
    assert str(exc.value) == message.format(value)


def test_a_numpy_rank_out_of_range_is_echoed_as_the_number():
    with pytest.raises(TailquantError) as exc:
        bootstrap_weights(100, np.int64(0))
    assert str(exc.value) == "rank must lie in 1..100, got 0"
