"""Threshold-exceedance events and return-interval sequences.

An event is any sample with volatility strictly above the threshold q;
the return intervals are the gaps (in sampling steps) between successive
events.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .series import VolatilitySeries

__all__ = [
    "IntervalSequence",
    "extract_intervals",
]


@dataclass(frozen=True)
class IntervalSequence:
    """Ordered return intervals for one threshold, in sampling-step units."""

    threshold_q: float
    intervals: np.ndarray  # int64, each >= 1
    mean_interval: float = field(init=False)

    def __post_init__(self):
        iv = np.asarray(self.intervals, dtype=np.int64)
        if iv.size == 0:
            raise ValueError("interval sequence must be non-empty")
        if np.any(iv < 1):
            raise ValueError("intervals must be >= 1 sampling step")
        object.__setattr__(self, "intervals", iv)
        # integer sum, so the mean is exact and permutation invariant
        object.__setattr__(self, "mean_interval", float(iv.sum()) / iv.size)

    def __len__(self):
        return self.intervals.size

    def scaled(self) -> np.ndarray:
        """Intervals divided by their mean."""
        return self.intervals / self.mean_interval


def extract_intervals(vol, q: float, session_ids=None) -> IntervalSequence:
    """Intervals between successive samples with g(t) > q (strict).

    Given session_ids, intervals whose bounding events lie in different
    sessions are discarded.
    """
    if q <= 0:
        raise ValueError("threshold q must be positive")
    g = (vol if isinstance(vol, VolatilitySeries) else VolatilitySeries(vol)).values
    if g.size < 2:
        raise ValueError("volatility series needs at least 2 samples")
    events = np.flatnonzero(g > q)
    if events.size < 2:
        raise ValueError(f"threshold q={q:g}: found {events.size} event(s), need at least 2")
    intervals = np.diff(events)
    if session_ids is not None:
        sid = np.asarray(session_ids)
        keep = sid[events[1:]] == sid[events[:-1]]
        if not np.any(keep):
            raise ValueError(f"threshold q={q:g}: {events.size} events, but no two successive "
                             "events share a session")
        intervals = intervals[keep]
    return IntervalSequence(threshold_q=float(q), intervals=intervals)

