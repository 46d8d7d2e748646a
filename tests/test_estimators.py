import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailquant.errors import DomainError, InsufficientSamples
from tailquant.estimators import (
    check_p,
    check_size,
    min_sample_size,
    observations,
    quantile_rank,
    sample_quantile,
    smallest,
)

def walk_min_sample_size(p: float) -> int:
    """The smallest n with floor(n*p) >= 1 by a walk in steps of 1 from ceil(1/p).

    Exact, but each step moves float(n) by less than its spacing once
    1/p > 2^53, so it ends fast only for p above about 1e-20.
    """
    n = max(1, math.ceil(1.0 / p))
    while math.floor(n * p) < 1:
        n += 1
    while n > 1 and math.floor((n - 1) * p) >= 1:
        n -= 1
    return n


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
        with pytest.raises(DomainError, match="a sample needs at least one observation"):
            observations([])

    @pytest.mark.parametrize("bad", [[1.0, math.nan], [math.inf], [1.0, -math.inf, 2.0]])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError, match="observations must all be finite"):
            observations(bad)

    def test_rejects_matrix(self):
        with pytest.raises(DomainError, match="observations must be one-dimensional"):
            observations([[1.0, 2.0], [3.0, 4.0]])

    def test_n(self):
        values = observations([3, 1, 2])
        assert values.dtype == np.float64
        assert values.tolist() == [3.0, 1.0, 2.0]


class TestSortAscending:
    """Ascending order statistics, as `smallest` returns them."""

    @pytest.mark.parametrize(
        "data,expected",
        [
            ([3.0, 1.0, 2.0], [1.0, 2.0, 3.0]),
            ([5.0], [5.0]),
            ([2.0, 2.0, 1.0], [1.0, 2.0, 2.0]),
        ],
    )
    def test_examples(self, data, expected):
        assert smallest(observations(data), len(data)).tolist() == expected

    @given(st.lists(finite_floats, min_size=1, max_size=60), st.integers(min_value=1, max_value=60))
    def test_is_permutation(self, data, k):
        k = min(k, len(data))
        assert smallest(observations(data), k).tolist() == sorted(data)[:k]


class TestSampleQuantile:
    def test_hundred_observations_p_point_two(self):
        rng = np.random.default_rng(0)
        data = rng.permutation(np.arange(1.0, 101.0))
        assert sample_quantile(data, 0.2) == 20.0

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples) as exc:
            sample_quantile(np.arange(10.0), 0.05)
        assert exc.value.needed == 20
        assert "insufficient samples: need n >= 20" in str(exc.value)

    def test_direct_indexing_example(self):
        data = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0]
        assert sample_quantile(data, 0.31) == 30.0

    def test_p_near_one_returns_near_maximum(self):
        # n * p stays strictly below n for every float p < 1, so the largest
        # reachable rank from the floor rule is n - 1.
        p = 1.0 - 2.0**-53
        assert quantile_rank(16, p) == 15
        assert sample_quantile(np.arange(16.0, 0.0, -1.0), p) == 15.0

    def test_rank_law_grid(self):
        levels = [0.01, 0.05, 0.1, 0.25, 0.31, 0.5, 0.75, 0.9, 0.97]
        for n in range(1, 61):
            values = np.linspace(0.0, 1.0, n)
            for p in levels:
                r = math.floor(n * p)
                if r < 1:
                    with pytest.raises(InsufficientSamples):
                        sample_quantile(values, p)
                else:
                    assert sample_quantile(values[::-1], p) == values[r - 1]

    def test_monotone_in_p(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=200)
        levels = np.linspace(0.01, 0.99, 60)
        values = [sample_quantile(data, float(p)) for p in levels]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @given(
        data=st.lists(finite_floats, min_size=10, max_size=80),
        p=st.floats(min_value=0.15, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60)
    def test_permutation_invariance(self, data, p, seed):
        shuffled = np.random.default_rng(seed).permutation(np.asarray(data))
        assert sample_quantile(data, p) == sample_quantile(shuffled, p)

    def test_duplicates_allowed(self):
        assert sample_quantile([2.0, 2.0, 2.0, 2.0], 0.5) == 2.0


class TestRankHelpers:
    @pytest.mark.parametrize("p,expected", [(0.05, 20), (0.01, 100), (0.1, 10), (0.5, 2)])
    def test_min_sample_size(self, p, expected):
        assert min_sample_size(p) == expected

    def test_min_sample_size_is_tight(self):
        for p in [1e-3, 0.0123, 0.07, 1 / 3, 0.31, 0.9]:
            m = min_sample_size(p)
            assert math.floor(m * p) >= 1
            assert m == 1 or math.floor((m - 1) * p) < 1

    def test_min_sample_size_matches_the_linear_walk(self):
        # a log grid, then ties: p = 1/k, where k*p rounds to 1 or just below
        # it, and the floats on either side of 1/k
        levels = np.geomspace(1e-20, 0.99, 400).tolist() + [0.3, 0.7, 0.03, 3e-7]
        for k in range(2, 200):
            levels += [1.0 / k, math.nextafter(1.0 / k, 0.0), math.nextafter(1.0 / k, 1.0)]
        assert [p for p in levels if min_sample_size(p) != walk_min_sample_size(p)] == []

    @pytest.mark.parametrize("p", [1e-21, 1e-100, 1e-300, 1e-308, 5.57e-309, 2.0**-1024 + 2.0**-1074])
    def test_min_sample_size_is_tight_where_the_walk_stalls(self, p):
        m = min_sample_size(p)
        assert math.floor(m * p) >= 1
        assert math.floor((m - 1) * p) < 1

    @pytest.mark.parametrize("p", [5e-324, 1e-310, 2.0**-1024])
    def test_min_sample_size_rejects_p_whose_inverse_overflows(self, p):
        with pytest.raises(DomainError, match="no sample size resolves p = .*: 1/p overflows"):
            min_sample_size(p)
        with pytest.raises(InsufficientSamples, match=r"no n can resolve .* \(got n = 5\)"):
            quantile_rank(5, p)

    def test_sizes_up_to_the_largest_array_index(self):
        largest = int(np.iinfo(np.intp).max)
        assert check_size(largest) == largest
        assert quantile_rank(largest, 0.5) == (largest + 1) // 2
        for n in (largest + 1, 10**400):
            # n * p would raise OverflowError once n is past the float range
            with pytest.raises(DomainError, match=f"sample size must be at most {largest}, got a"):
                quantile_rank(n, 0.5)

    def test_quantile_rank_uses_float_product_as_represented(self):
        # 10 * 0.3 rounds up to exactly 3.0; the rule honors the represented product
        assert quantile_rank(10, 0.3) == 3
        assert quantile_rank(10, 0.31) == 3
