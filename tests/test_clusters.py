import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from volintervals import (
    VolatilitySeries,
    cluster_survival,
    extract_intervals,
    median_split,
    run_sizes,
    shuffle_volatility,
)


class TestMedianSplit:
    def test_ties_at_median_go_below(self):
        labels = median_split(np.array([1, 2, 3, 4, 5]))
        assert labels.tolist() == [False, False, False, True, True]

    def test_all_equal_all_below(self):
        # every interval ties at the median, so no run lies above it
        with pytest.raises(ValueError, match="^no above-median clusters$"):
            median_split(np.array([7, 7, 7, 7]))

    def test_direct_comparison(self):
        labels = median_split(np.array([5, 1, 5, 1]))
        assert labels.tolist() == [True, False, True, False]

    def test_above_count_at_most_half(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            iv = rng.geometric(0.3, size=rng.integers(10, 200))
            assert median_split(iv).sum() <= iv.size / 2


class TestClusters:
    def test_run_length_encoding(self):
        labels = np.array([True, True, False, False, True])
        assert run_sizes(labels).tolist() == [2, 1]
        assert run_sizes(~labels).tolist() == [2]

    def test_alternating_all_ones(self):
        labels = np.array([True, False] * 10)
        assert np.all(run_sizes(labels) == 1)
        assert np.all(run_sizes(~labels) == 1)

    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    @example([True])
    @example([False])
    @example([True] * 7)
    @example([False] * 7)
    def test_run_decomposition_is_a_bijection(self, labels):
        # each side's run sizes, in order, as itertools.groupby reads them
        lab = np.array(labels)
        groups = [(label, len(list(g))) for label, g in itertools.groupby(labels)]
        assert run_sizes(lab).tolist() == [n for label, n in groups if label]
        assert run_sizes(~lab).tolist() == [n for label, n in groups if not label]

    def test_fair_coin_runs_are_geometric(self):
        rng = np.random.default_rng(1)
        labels = rng.random(10**6) < 0.5
        sizes = run_sizes(labels)
        surv = cluster_survival(sizes)
        m = sizes.size
        assert surv[0, 1] == 1.0
        for k in range(2, 11):
            p = 2.0 ** (1 - k)
            sigma = np.sqrt(p * (1 - p) / m)
            assert abs(surv[k - 1, 1] - p) < 3 * sigma


class TestClusterSurvival:
    def test_counting(self):
        labels = np.array([True, False, True, True])  # above [1,2], below [1]
        surv = cluster_survival(run_sizes(labels))
        assert surv.tolist() == [[1, 1.0], [2, 0.5]]
        assert cluster_survival(run_sizes(~labels)).tolist() == [[1, 1.0]]
        below = ~np.array([True, False, True, False, False])  # below [1,2]
        assert cluster_survival(run_sizes(below)).tolist() == [[1, 1.0], [2, 0.5]]

    def test_explicit_example(self):
        # sizes [1,1,2] -> [(1,1.0), (2,1/3)]
        surv = cluster_survival(run_sizes([True, False, True, False, True, True]))
        assert surv[0].tolist() == [1, 1.0]
        assert surv[1, 1] == pytest.approx(1 / 3)
        assert cluster_survival(np.array([3, 1, 3])).tolist() == \
            [[1, 1.0], [2, 2 / 3], [3, 2 / 3]]

    def test_single_run(self):
        surv = cluster_survival(run_sizes([True] * 5))
        assert np.all(surv[:, 1] == 1.0)
        assert surv.shape == (5, 2)

    def test_survival_starts_at_one(self):
        rng = np.random.default_rng(2)
        labels = rng.random(1000) < 0.4
        assert cluster_survival(run_sizes(labels))[0, 1] == 1.0
        assert cluster_survival(run_sizes(~labels))[0, 1] == 1.0


class TestShuffleVolatility:
    def test_multiset_preserved_and_deterministic(self):
        rng = np.random.default_rng(3)
        vol = VolatilitySeries(np.abs(rng.standard_normal(500)))
        shuf = shuffle_volatility(vol, 9)
        assert np.array_equal(np.sort(shuf.values), np.sort(vol.values))
        assert np.array_equal(shuffle_volatility(vol, 9).values, shuf.values)

    def test_length_one_unchanged(self):
        vol = VolatilitySeries(np.array([2.5]))
        assert shuffle_volatility(vol, 0).values.tolist() == [2.5]

    @given(st.lists(st.floats(min_value=0, allow_nan=False), min_size=1, max_size=300),
           st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(min_value=0, allow_nan=False))
    def test_exceedance_count_is_permutation_invariant(self, values, seed, q):
        # why one shuffle can serve every threshold without an events check per seed
        vol = VolatilitySeries(np.array(values))
        assert np.count_nonzero(shuffle_volatility(vol, seed).values > q) == \
            np.count_nonzero(vol.values > q)

    def test_shuffled_correlated_runs_near_geometric(self, correlated_vol):
        # shuffling the volatility makes the interval labels exchangeable
        shuf = shuffle_volatility(correlated_vol, 5)
        sizes = run_sizes(median_split(extract_intervals(shuf, 2.0)))
        surv = cluster_survival(sizes)
        m = sizes.size
        assert surv[0, 1] == 1.0
        for k in range(2, 11):
            p = 2.0 ** (1 - k)
            sigma = np.sqrt(p * (1 - p) / m)
            obs = surv[k - 1, 1] if surv.shape[0] >= k else 0.0
            assert abs(obs - p) < 3 * sigma


def test_correlated_oracle_has_long_cluster_tails(correlated_vol):
    surv = cluster_survival(run_sizes(median_split(extract_intervals(correlated_vol, 2.0))))
    assert surv.shape[0] >= 8
    assert surv[7, 1] >= 2 * 2.0 ** (-7)
