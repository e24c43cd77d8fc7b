import numpy as np
import pytest
from scipy import stats

from volintervals import (
    conditional_blocks,
    conditional_mean_curve,
    extract_intervals,
    mean_interval,
    pdf_estimate,
    shuffle_intervals,
)
from volintervals.pipeline import AnalysisConfig, _conditional_tables


def test_one_value_per_subset():
    iv = np.arange(1, 18)  # the fewest intervals for 8 subsets
    cond, succ = conditional_blocks(iv, n_subsets=8)
    assert (cond[0].min(), cond[0].max()) == (1, 2)
    # successors of the two smallest predecessors
    assert sorted(succ[0].tolist()) == [2, 3]
    assert len([pdf_estimate(s, mean_interval(iv), mode="linear", n_bins=2) for s in succ]) == 8


def test_periodic_alternation():
    iv = np.array([1, 9] * 10)
    samples = conditional_blocks(iv, n_subsets=2)[1]
    assert set(samples[0].tolist()) == {9}
    assert set(samples[1].tolist()) == {1}


def test_conditional_mean_alternating_exact():
    iv = np.array([1, 9] * 8)
    assert mean_interval(iv) == 5.0
    _, means, _ = conditional_mean_curve(conditional_blocks(iv, 2), mean_interval(iv))
    assert means[0] == pytest.approx(1.8)
    assert means[1] == pytest.approx(0.2)


def test_union_of_conditional_samples_is_all_successors():
    rng = np.random.default_rng(0)
    iv = rng.geometric(0.3, size=500)
    samples = conditional_blocks(iv, n_subsets=8)[1]
    combined = np.sort(np.concatenate(samples))
    assert np.array_equal(combined, np.sort(iv[1:]))


def test_law_of_total_expectation_exact():
    rng = np.random.default_rng(1)
    for trial in range(5):
        iv = rng.geometric(0.25, size=200 + trial)
        blocks = conditional_blocks(iv, n_subsets=8)
        sums = np.array([s.sum() for s in blocks[1]])
        counts = np.array([s.size for s in blocks[1]])
        _, means, _ = conditional_mean_curve(blocks, mean_interval(iv))
        assert np.array_equal(means, sums / counts / mean_interval(iv))
        total = sums.sum()
        assert total == iv[1:].sum()
        assert counts.sum() == iv.size - 1
        # weighted mean of block means equals the successor mean exactly
        assert total / counts.sum() == iv[1:].mean()


def test_tie_break_is_stable_by_time_index():
    # equal conditioning values: earlier occurrences go to lower subsets
    iv = np.array([5, 10, 5, 20, 5, 30, 5, 40])
    cond, succ = conditional_blocks(iv, n_subsets=2)
    # sorted predecessors: four 5s (times 0,2,4,6) then 10,20,30
    assert succ[0].tolist() == [10, 20, 30, 40]


def test_insufficient_pairs():
    with pytest.raises(ValueError, match="need at least 17 intervals for 8 subsets, have 3"):
        conditional_blocks(np.array([1, 2, 3]), n_subsets=8)


def test_iid_geometric_bin_means_near_one():
    rng = np.random.default_rng(2)
    iv = rng.geometric(0.2, size=10**5)
    _, means, stderr = conditional_mean_curve(conditional_blocks(iv, 8), mean_interval(iv))
    assert np.all(np.abs(means - 1.0) < 3 * stderr)


def test_correlated_oracle_shows_memory(correlated_vol):
    iv = extract_intervals(correlated_vol, 1.0)
    _, means, _ = conditional_mean_curve(conditional_blocks(iv, 8), mean_interval(iv))
    assert means[0] < 1.0
    assert means[-1] > 1.0
    # near-monotone in tau0: at most 1 inversion among the 8 blocks
    inversions = int(np.sum(np.diff(means) < 0))
    assert inversions <= 1


def test_shuffle_preserves_multiset_and_mean():
    rng = np.random.default_rng(3)
    iv = rng.geometric(0.3, size=1000)
    shuf = shuffle_intervals(iv, seed=11)
    assert np.array_equal(np.sort(shuf), np.sort(iv))
    assert mean_interval(shuf) == mean_interval(iv)  # bit-exact
    assert np.array_equal(shuffle_intervals(iv, 11), shuf)


def test_shuffle_single_interval_unchanged():
    iv = np.array([4])
    assert shuffle_intervals(iv, 0).tolist() == [4]


def test_shuffled_correlated_mean_curve_is_flat(correlated_vol):
    iv = extract_intervals(correlated_vol, 1.0)
    shuf = shuffle_intervals(iv, seed=42)
    _, means, stderr = conditional_mean_curve(conditional_blocks(shuf, 8), mean_interval(shuf))
    assert np.all(np.abs(means - 1.0) < 3 * stderr)


def test_shuffled_conditional_matches_unconditional():
    # KS between the lowest-octile conditional sample and all intervals,
    # at the 1% level, passes for nearly all seeds
    rng = np.random.default_rng(4)
    iv = rng.geometric(0.15, size=20000)
    passed = 0
    n_seeds = 25
    for seed in range(n_seeds):
        shuf = shuffle_intervals(iv, seed)
        sample = conditional_blocks(shuf, 8)[1][0]
        p = stats.ks_2samp(sample, shuf).pvalue
        passed += p > 0.01
    assert passed >= int(0.95 * n_seeds)


def test_conditional_pdf_scaled_with_full_sequence_mean(correlated_vol):
    iv = extract_intervals(correlated_vol, 1.5)
    pdfs = [pdf_estimate(s, mean_interval(iv), n_bins=20) for s in conditional_blocks(iv, 8)[1]]
    assert len(pdfs) == 8
    x, y = pdfs[7]
    assert np.all(x >= 0)
    assert np.all(y >= 0)
    # the largest-predecessor octile skews toward long successors
    assert conditional_blocks(iv, 8)[1][7].mean() > mean_interval(iv)


@pytest.mark.parametrize("mode, n_bins", [("logarithmic", 20), ("linear", 7)])
def test_conditional_tables_match_per_block_oracle(correlated_vol, mode, n_bins):
    iv = extract_intervals(correlated_vol, 2.0)
    blocks = conditional_blocks(iv, 5)
    *pdfs, mean = _conditional_tables(
        2.0, iv, mean_interval(iv), AnalysisConfig(input=["x.csv"], subsets=5, binning=mode, bins=n_bins))
    assert [(t.stem, t.suffix) for t in pdfs] == [("conditional_pdf", f"_k{k}") for k in range(1, 6)]
    for block, t in zip(blocks[1], pdfs):
        want_x, want_y = pdf_estimate(block, mean_interval(iv), mode=mode, n_bins=n_bins)
        assert np.array_equal(t.columns[0], want_x)
        assert np.array_equal(t.columns[1], want_y)
    # the mean curve is taken from the same split
    assert mean.stem == "conditional_mean"
    for got, want in zip(mean.columns, conditional_mean_curve(blocks, mean_interval(iv))):
        assert np.array_equal(got, want)
