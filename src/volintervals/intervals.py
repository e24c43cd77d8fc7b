"""Threshold-exceedance events and return-interval sequences.

An event is any sample with volatility strictly above the threshold q;
the return intervals are the gaps (in sampling steps) between successive
events.
"""

from __future__ import annotations

import numpy as np

from .series import VolatilitySeries, _per_sample

__all__ = [
    "extract_intervals",
    "mean_interval",
]


def mean_interval(intervals) -> float:
    """<tau> of a non-empty sequence of intervals, each >= 1 sampling step."""
    iv = np.asarray(intervals, dtype=np.int64)
    if iv.size == 0:
        raise ValueError("interval sequence must be non-empty")
    if np.any(iv < 1):
        raise ValueError("intervals must be >= 1 sampling step")
    # integer sum, so the mean is exact and permutation invariant
    return float(iv.sum()) / iv.size


def extract_intervals(vol, q: float, session_ids=None) -> np.ndarray:
    """Intervals (int64) between successive samples with g(t) > q (strict).

    Given session_ids, intervals whose bounding events lie in different
    sessions are discarded.
    """
    if not q > 0:  # also true for NaN
        raise ValueError("threshold q must be positive")
    g = (vol if isinstance(vol, VolatilitySeries) else VolatilitySeries(vol)).values
    if g.size < 2:
        raise ValueError("volatility series needs at least 2 samples")
    events = np.flatnonzero(g > q)
    if events.size < 2:
        raise ValueError(f"threshold q={q:g}: found {events.size} event(s), need at least 2")
    intervals = np.diff(events)
    if session_ids is not None:
        sid = _per_sample(session_ids, g.size, "session_ids")
        keep = sid[events[1:]] == sid[events[:-1]]
        if not np.any(keep):
            raise ValueError(f"threshold q={q:g}: {events.size} events, but no two successive "
                             "events share a session")
        intervals = intervals[keep]
    return intervals

