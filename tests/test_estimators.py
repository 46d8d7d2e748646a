import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailquant.errors import DomainError, InsufficientSamples
from tailquant.estimators import (
    QuantileEstimate,
    Sample,
    SortedSample,
    check_p,
    min_sample_size,
    quantile_rank,
    sample_quantile,
    sort_ascending,
)

finite_floats = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False)


class TestProbabilityLevel:
    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, math.nan])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(DomainError, match="probability level must satisfy 0 < p < 1"):
            quantile_rank(100, p)

    def test_accepts_interior(self):
        assert check_p(0.01) == 0.01
        assert check_p(1e-9) == 1e-9


class TestSample:
    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            Sample([])

    @pytest.mark.parametrize("bad", [[1.0, math.nan], [math.inf], [1.0, -math.inf, 2.0]])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            Sample(bad)

    def test_rejects_matrix(self):
        with pytest.raises(DomainError):
            Sample([[1.0, 2.0], [3.0, 4.0]])

    def test_values_are_immutable(self):
        sample = Sample([3.0, 1.0])
        with pytest.raises(ValueError):
            sample.values[0] = 99.0

    def test_n(self):
        assert Sample([1.0, 2.0, 3.0]).n == 3


class TestSortAscending:
    @pytest.mark.parametrize(
        "data,expected",
        [
            ([3.0, 1.0, 2.0], [1.0, 2.0, 3.0]),
            ([5.0], [5.0]),
            ([2.0, 2.0, 1.0], [1.0, 2.0, 2.0]),
        ],
    )
    def test_examples(self, data, expected):
        assert sort_ascending(Sample(data)).values.tolist() == expected

    def test_sorted_sample_rejects_unsorted(self):
        with pytest.raises(DomainError):
            SortedSample([2.0, 1.0])

    @given(st.lists(finite_floats, min_size=1, max_size=60))
    def test_is_permutation(self, data):
        ordered = sort_ascending(Sample(data))
        assert sorted(data) == ordered.values.tolist()


class TestSampleQuantile:
    def test_hundred_observations_p_point_two(self):
        rng = np.random.default_rng(0)
        data = rng.permutation(np.arange(1.0, 101.0))
        estimate = sample_quantile(Sample(data), 0.2)
        assert estimate.rank == 20
        assert estimate.value == 20.0
        assert estimate.n == 100

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples) as exc:
            sample_quantile(Sample(np.arange(10.0)), 0.05)
        assert exc.value.needed == 20
        assert "insufficient samples: need n >= 20" in str(exc.value)

    def test_direct_indexing_example(self):
        data = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0]
        estimate = sample_quantile(SortedSample(data), 0.31)
        assert estimate.rank == 3
        assert estimate.value == 30.0

    def test_p_near_one_returns_near_maximum(self):
        # n * p stays strictly below n for every float p < 1, so the largest
        # reachable rank from the floor rule is n - 1; rank n itself is still
        # a valid order statistic with no special casing.
        p = 1.0 - 2.0**-53
        ordered = SortedSample(np.arange(1.0, 17.0))
        estimate = sample_quantile(ordered, p)
        assert estimate.rank == 15
        assert QuantileEstimate(value=16.0, rank=16, p=p, n=16).rank == 16

    def test_rank_law_grid(self):
        levels = [0.01, 0.05, 0.1, 0.25, 0.31, 0.5, 0.75, 0.9, 0.97]
        for n in range(1, 61):
            values = np.linspace(0.0, 1.0, n)
            for p in levels:
                r = math.floor(n * p)
                if r < 1:
                    with pytest.raises(InsufficientSamples):
                        sample_quantile(SortedSample(values), p)
                else:
                    assert sample_quantile(SortedSample(values), p).rank == r

    def test_monotone_in_p(self):
        rng = np.random.default_rng(5)
        ordered = sort_ascending(Sample(rng.normal(size=200)))
        levels = np.linspace(0.01, 0.99, 60)
        values = [sample_quantile(ordered, float(p)).value for p in levels]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @given(
        data=st.lists(finite_floats, min_size=10, max_size=80),
        p=st.floats(min_value=0.15, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60)
    def test_permutation_invariance(self, data, p, seed):
        shuffled = np.random.default_rng(seed).permutation(np.asarray(data))
        original = sample_quantile(Sample(data), p)
        permuted = sample_quantile(Sample(shuffled), p)
        assert original.value == permuted.value
        assert original.rank == permuted.rank

    def test_duplicates_allowed(self):
        estimate = sample_quantile(Sample([2.0, 2.0, 2.0, 2.0]), 0.5)
        assert estimate.value == 2.0
        assert estimate.rank == 2


class TestRankHelpers:
    @pytest.mark.parametrize("p,expected", [(0.05, 20), (0.01, 100), (0.1, 10), (0.5, 2)])
    def test_min_sample_size(self, p, expected):
        assert min_sample_size(p) == expected

    def test_min_sample_size_is_tight(self):
        for p in [1e-3, 0.0123, 0.07, 1 / 3, 0.31, 0.9]:
            m = min_sample_size(p)
            assert math.floor(m * p) >= 1
            assert m == 1 or math.floor((m - 1) * p) < 1

    def test_quantile_rank_uses_float_product_as_represented(self):
        # 10 * 0.3 rounds up to exactly 3.0; the rule honors the represented product
        assert quantile_rank(10, 0.3) == 3
        assert quantile_rank(10, 0.31) == 3

    def test_quantile_estimate_validates_rank(self):
        with pytest.raises(DomainError):
            QuantileEstimate(value=1.0, rank=0, p=0.2, n=10)
        with pytest.raises(DomainError):
            QuantileEstimate(value=1.0, rank=11, p=0.2, n=10)
