"""Threshold-exceedance events and return-interval sequences.

An event is any sample with volatility strictly above the threshold q;
the return intervals are the gaps (in sampling steps) between successive
events.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import VolatilitySeries

__all__ = [
    "IntervalSequence",
    "InsufficientEventsError",
    "extract_intervals",
]


class InsufficientEventsError(ValueError):
    """Fewer than 2 threshold exceedances; carries the event count."""

    def __init__(self, q: float, n_events: int):
        super().__init__(f"threshold q={q:g}: found {n_events} event(s), need at least 2")
        self.q = q
        self.n_events = n_events


@dataclass(frozen=True)
class IntervalSequence:
    """Ordered return intervals for one threshold, in sampling-step units."""

    threshold_q: float
    intervals: np.ndarray  # int64, each >= 1
    mean_interval: float = None

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


def extract_intervals(vol, q: float, session_ids=None, drop_session_gaps: bool = False) -> IntervalSequence:
    """Intervals between successive samples with g(t) > q (strict).

    With drop_session_gaps, intervals whose bounding events lie in
    different sessions are discarded (session_ids required).
    """
    if q <= 0:
        raise ValueError("threshold q must be positive")
    g = vol.values if isinstance(vol, VolatilitySeries) else np.asarray(vol, dtype=float)
    if g.size < 2:
        raise ValueError("volatility series needs at least 2 samples")
    events = np.flatnonzero(g > q)
    if events.size < 2:
        raise InsufficientEventsError(q, int(events.size))
    intervals = np.diff(events)
    if drop_session_gaps:
        if session_ids is None:
            raise ValueError("drop_session_gaps requires session_ids")
        sid = np.asarray(session_ids)
        keep = sid[events[1:]] == sid[events[:-1]]
        if not np.any(keep):
            raise ValueError(f"threshold q={q:g}: {events.size} events, but no two successive "
                             "events share a session")
        intervals = intervals[keep]
    return IntervalSequence(threshold_q=float(q), intervals=intervals)

