import numpy as np
import pytest
from scipy import stats

from volintervals import (
    IntervalSequence,
    conditional_mean_curve,
    conditional_pdfs,
    extract_intervals,
    pdf_estimate,
    scale_pdf,
    shuffle_intervals,
)
from volintervals.memory import conditional_blocks


def make_seq(intervals, q=1.0):
    return IntervalSequence(threshold_q=q, intervals=np.asarray(intervals))


def test_one_value_per_subset():
    seq = make_seq([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16])
    cond, succ = conditional_blocks(seq, n_subsets=8)
    assert (cond[0].min(), cond[0].max()) == (1, 2)
    # successors of the two smallest predecessors
    assert sorted(succ[0].tolist()) == [2, 3]
    assert len(conditional_pdfs(seq, n_subsets=8, mode="linear", n_bins=2)) == 8


def test_periodic_alternation():
    seq = make_seq([1, 9] * 10)
    samples = conditional_blocks(seq, n_subsets=2)[1]
    assert set(samples[0].tolist()) == {9}
    assert set(samples[1].tolist()) == {1}


def test_conditional_mean_alternating_exact():
    seq = make_seq([1, 9] * 8)
    assert seq.mean_interval == 5.0
    _, means, _ = conditional_mean_curve(seq, n_subsets=2)
    assert means[0] == pytest.approx(1.8)
    assert means[1] == pytest.approx(0.2)


def test_union_of_conditional_samples_is_all_successors():
    rng = np.random.default_rng(0)
    seq = make_seq(rng.geometric(0.3, size=500))
    samples = conditional_blocks(seq, n_subsets=8)[1]
    combined = np.sort(np.concatenate(samples))
    assert np.array_equal(combined, np.sort(seq.intervals[1:]))


def test_law_of_total_expectation_exact():
    rng = np.random.default_rng(1)
    for trial in range(5):
        seq = make_seq(rng.geometric(0.25, size=200 + trial))
        succ = conditional_blocks(seq, n_subsets=8)[1]
        sums = np.array([s.sum() for s in succ])
        counts = np.array([s.size for s in succ])
        _, means, _ = conditional_mean_curve(seq, n_subsets=8)
        assert np.array_equal(means, sums / counts / seq.mean_interval)
        total = sums.sum()
        assert total == seq.intervals[1:].sum()
        assert counts.sum() == len(seq) - 1
        # weighted mean of block means equals the successor mean exactly
        assert total / counts.sum() == seq.intervals[1:].mean()


def test_tie_break_is_stable_by_time_index():
    # equal conditioning values: earlier occurrences go to lower subsets
    seq = make_seq([5, 10, 5, 20, 5, 30, 5, 40])
    cond, succ = conditional_blocks(seq, n_subsets=2)
    # sorted predecessors: four 5s (times 0,2,4,6) then 10,20,30
    assert succ[0].tolist() == [10, 20, 30, 40]


def test_insufficient_pairs():
    with pytest.raises(ValueError, match="need at least 16 intervals for 8 subsets, have 3"):
        conditional_blocks(make_seq([1, 2, 3]), n_subsets=8)


def test_iid_geometric_bin_means_near_one():
    rng = np.random.default_rng(2)
    seq = make_seq(rng.geometric(0.2, size=10**5))
    _, means, stderr = conditional_mean_curve(seq, n_subsets=8)
    assert np.all(np.abs(means - 1.0) < 3 * stderr)


def test_correlated_oracle_shows_memory(correlated_vol):
    seq = extract_intervals(correlated_vol, 1.0)
    _, means, _ = conditional_mean_curve(seq, n_subsets=8)
    assert means[0] < 1.0
    assert means[-1] > 1.0
    # near-monotone in tau0: at most 1 inversion among the 8 blocks
    inversions = int(np.sum(np.diff(means) < 0))
    assert inversions <= 1


def test_shuffle_preserves_multiset_and_mean():
    rng = np.random.default_rng(3)
    seq = make_seq(rng.geometric(0.3, size=1000))
    shuf = shuffle_intervals(seq, seed=11)
    assert np.array_equal(np.sort(shuf.intervals), np.sort(seq.intervals))
    assert shuf.mean_interval == seq.mean_interval  # bit-exact
    assert np.array_equal(shuffle_intervals(seq, 11).intervals, shuf.intervals)


def test_shuffle_single_interval_unchanged():
    seq = make_seq([4])
    assert shuffle_intervals(seq, 0).intervals.tolist() == [4]


def test_shuffled_correlated_mean_curve_is_flat(correlated_vol):
    seq = extract_intervals(correlated_vol, 1.0)
    shuf = shuffle_intervals(seq, seed=42)
    _, means, stderr = conditional_mean_curve(shuf, n_subsets=8)
    assert np.all(np.abs(means - 1.0) < 3 * stderr)


def test_shuffled_conditional_matches_unconditional():
    # KS between the lowest-octile conditional sample and all intervals,
    # at the 1% level, passes for nearly all seeds
    rng = np.random.default_rng(4)
    seq = make_seq(rng.geometric(0.15, size=20000))
    passed = 0
    n_seeds = 25
    for seed in range(n_seeds):
        shuf = shuffle_intervals(seq, seed)
        sample = conditional_blocks(shuf, 8)[1][0]
        p = stats.ks_2samp(sample, shuf.intervals).pvalue
        passed += p > 0.01
    assert passed >= int(0.95 * n_seeds)


def test_conditional_pdf_scaled_with_full_sequence_mean(correlated_vol):
    seq = extract_intervals(correlated_vol, 1.5)
    pdfs = conditional_pdfs(seq, n_subsets=8)
    assert len(pdfs) == 8
    x, y = pdfs[7]
    assert np.all(x >= 0)
    assert np.all(y >= 0)
    # the largest-predecessor octile skews toward long successors
    assert conditional_blocks(seq, 8)[1][7].mean() > seq.mean_interval


@pytest.mark.parametrize("mode, n_bins", [("logarithmic", 20), ("linear", 7)])
def test_conditional_pdfs_match_per_block_oracle(correlated_vol, mode, n_bins):
    seq = extract_intervals(correlated_vol, 2.0)
    _, succ = conditional_blocks(seq, 5)
    got = conditional_pdfs(seq, n_subsets=5, mode=mode, n_bins=n_bins)
    assert len(got) == len(succ)
    for block, (x, y) in zip(succ, got):
        want_x, want_y = scale_pdf(pdf_estimate(block, mode=mode, n_bins=n_bins), seq.mean_interval)
        assert np.array_equal(x, want_x)
        assert np.array_equal(y, want_y)
