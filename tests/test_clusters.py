import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from volintervals import (
    IntervalSequence,
    VolatilitySeries,
    cluster_survival,
    clusters,
    extract_intervals,
    median_split,
    shuffle_volatility,
)


def make_seq(intervals, q=1.0):
    return IntervalSequence(threshold_q=q, intervals=np.asarray(intervals))


class TestMedianSplit:
    def test_ties_at_median_go_below(self):
        labels = median_split(make_seq([1, 2, 3, 4, 5]))
        assert labels.tolist() == [False, False, False, True, True]

    def test_all_equal_all_below(self):
        assert not median_split(make_seq([7, 7, 7, 7])).any()

    def test_direct_comparison(self):
        labels = median_split(make_seq([5, 1, 5, 1]))
        assert labels.tolist() == [True, False, True, False]

    def test_above_count_at_most_half(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            seq = make_seq(rng.geometric(0.3, size=rng.integers(10, 200)))
            assert median_split(seq).sum() <= len(seq) / 2


class TestClusters:
    def test_run_length_encoding(self):
        runs = clusters([True, True, False, False, True])
        assert runs.above_sizes.tolist() == [2, 1]
        assert runs.below_sizes.tolist() == [2]

    def test_alternating_all_ones(self):
        runs = clusters([True, False] * 10)
        assert np.all(runs.above_sizes == 1)
        assert np.all(runs.below_sizes == 1)

    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    def test_run_decomposition_is_a_bijection(self, labels):
        runs = clusters(labels)
        assert runs.above_sizes.sum() + runs.below_sizes.sum() == len(labels)
        # rebuild the sequence from the runs, in order
        sizes = []
        lab = np.asarray(labels)
        starts = np.flatnonzero(np.diff(lab)) + 1
        edges = np.concatenate(([0], starts, [lab.size]))
        rebuilt = np.concatenate([
            np.full(edges[i + 1] - edges[i], lab[edges[i]]) for i in range(edges.size - 1)
        ])
        assert np.array_equal(rebuilt, lab)

    def test_fair_coin_runs_are_geometric(self):
        rng = np.random.default_rng(1)
        labels = rng.random(10**6) < 0.5
        runs = clusters(labels)
        surv = cluster_survival(runs, "above")
        m = runs.above_sizes.size
        assert surv[0, 1] == 1.0
        for k in range(2, 11):
            p = 2.0 ** (1 - k)
            sigma = np.sqrt(p * (1 - p) / m)
            assert abs(surv[k - 1, 1] - p) < 3 * sigma


class TestClusterSurvival:
    def test_counting(self):
        runs = clusters([True, False, True, True])  # above [1,2], below [1]
        surv = cluster_survival(runs, "above")
        assert surv.tolist() == [[1, 1.0], [2, 0.5]]
        sizes_example = cluster_survival(
            clusters([True, False, True, False, False]), "below")  # below [1,2]
        assert sizes_example[0].tolist() == [1, 1.0]

    def test_explicit_example(self):
        # sizes [1,1,2] -> [(1,1.0), (2,1/3)]
        runs = clusters([True, False, True, False, True, True])
        surv = cluster_survival(runs, "above")
        assert surv[0].tolist() == [1, 1.0]
        assert surv[1, 1] == pytest.approx(1 / 3)

    def test_single_run(self):
        surv = cluster_survival(clusters([True] * 5), "above")
        assert np.all(surv[:, 1] == 1.0)
        assert surv.shape == (5, 2)

    def test_survival_starts_at_one(self):
        rng = np.random.default_rng(2)
        runs = clusters(rng.random(1000) < 0.4)
        assert cluster_survival(runs, "above")[0, 1] == 1.0
        assert cluster_survival(runs, "below")[0, 1] == 1.0

    def test_bad_side(self):
        with pytest.raises(ValueError):
            cluster_survival(clusters([True]), "sideways")


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
        seq = extract_intervals(shuf, 2.0)
        runs = clusters(median_split(seq))
        surv = cluster_survival(runs, "above")
        m = runs.above_sizes.size
        assert surv[0, 1] == 1.0
        for k in range(2, 11):
            p = 2.0 ** (1 - k)
            sigma = np.sqrt(p * (1 - p) / m)
            obs = surv[k - 1, 1] if surv.shape[0] >= k else 0.0
            assert abs(obs - p) < 3 * sigma


def test_correlated_oracle_has_long_cluster_tails(correlated_vol):
    seq = extract_intervals(correlated_vol, 2.0)
    surv = cluster_survival(clusters(median_split(seq)), "above")
    assert surv.shape[0] >= 8
    assert surv[7, 1] >= 2 * 2.0 ** (-7)
