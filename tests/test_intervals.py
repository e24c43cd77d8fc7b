import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from volintervals import InsufficientEventsError, VolatilitySeries, extract_intervals


def geometric_cdf_ks(intervals, p):
    """Exact KS distance of integer intervals from Geometric(p), by enumeration."""
    iv = np.asarray(intervals)
    kmax = int(iv.max())
    emp = np.cumsum(np.bincount(iv, minlength=kmax + 1)[1:]) / iv.size
    k = np.arange(1, kmax + 1)
    geo = 1.0 - (1.0 - p) ** k
    return np.abs(emp - geo).max()


def test_direct_count():
    seq = extract_intervals(VolatilitySeries(np.array([2.0, 0, 0, 2, 0, 2])), 1.0)
    assert seq.intervals.tolist() == [3, 2]
    assert seq.mean_interval == 2.5


def test_no_events_raises_with_count():
    with pytest.raises(InsufficientEventsError) as e:
        extract_intervals(VolatilitySeries(np.array([0.1, 0.2, 0.3])), 1.0)
    assert e.value.n_events == 0
    assert e.value.q == 1.0


def test_strict_inequality_at_threshold():
    # values exactly at q are non-events
    seq = extract_intervals(VolatilitySeries(np.array([2.0, 1.0, 1.0, 2.0])), 1.0)
    assert seq.intervals.tolist() == [3]


def test_gaussian_mean_interval_matches_tail_probability():
    rng = np.random.default_rng(7)
    g = np.abs(rng.standard_normal(10**6))
    seq = extract_intervals(VolatilitySeries(g), 2.0)
    expected = 1.0 / (2.0 * stats.norm.sf(2.0))
    assert expected == pytest.approx(21.98, abs=0.01)
    assert seq.mean_interval == pytest.approx(expected, rel=0.02)


def test_iid_intervals_are_geometric():
    rng = np.random.default_rng(8)
    g = np.abs(rng.standard_normal(10**6))
    seq = extract_intervals(VolatilitySeries(g), 1.0)
    p_hat = (len(seq) + 1) / g.size
    assert geometric_cdf_ks(seq.intervals, p_hat) < 0.01


def test_identical_thresholds_give_identical_sequences():
    rng = np.random.default_rng(9)
    vol = VolatilitySeries(np.abs(rng.standard_normal(2000)))
    a, b = [extract_intervals(vol, q) for q in [1.0, 1.0]]
    assert np.array_equal(a.intervals, b.intervals)


def test_mean_interval_monotone_in_q():
    rng = np.random.default_rng(10)
    vol = VolatilitySeries(np.abs(rng.standard_normal(50000)))
    seqs = [extract_intervals(vol, q) for q in [1.0, 1.25, 1.5, 1.75, 2.0]]
    means = [s.mean_interval for s in seqs]
    assert all(a <= b for a, b in zip(means, means[1:]))


def test_event_subset_monotonicity(correlated_vol):
    g = correlated_vol.values[:10000]
    e1 = set(np.flatnonzero(g > 1.0))
    e2 = set(np.flatnonzero(g > 1.5))
    assert e2 <= e1


def test_interval_sum_identity():
    rng = np.random.default_rng(11)
    g = np.abs(rng.standard_normal(5000))
    seq = extract_intervals(VolatilitySeries(g), 1.2)
    events = np.flatnonzero(g > 1.2)
    assert seq.intervals.sum() == events[-1] - events[0]


def test_time_reversal():
    rng = np.random.default_rng(12)
    g = np.abs(rng.standard_normal(3000))
    fwd = extract_intervals(VolatilitySeries(g), 1.1)
    rev = extract_intervals(VolatilitySeries(g[::-1]), 1.1)
    assert np.array_equal(fwd.intervals, rev.intervals[::-1])


def test_drop_session_gaps():
    g = np.array([2.0, 0, 2.0, 2.0])
    sessions = np.array([0, 0, 1, 1])
    full = extract_intervals(VolatilitySeries(g), 1.0)
    assert full.intervals.tolist() == [2, 1]
    kept = extract_intervals(VolatilitySeries(g), 1.0, session_ids=sessions,
                             drop_session_gaps=True)
    assert kept.intervals.tolist() == [1]


@given(st.lists(st.floats(min_value=0, max_value=3), min_size=20, max_size=60),
       st.floats(min_value=0.5, max_value=2.0))
def test_intervals_positive_and_ordered(values, q):
    vol = VolatilitySeries(np.array(values))
    try:
        seq = extract_intervals(vol, q)
    except InsufficientEventsError:
        return
    assert np.all(seq.intervals >= 1)
    assert seq.mean_interval == pytest.approx(seq.intervals.mean())
