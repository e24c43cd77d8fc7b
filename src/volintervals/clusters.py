"""Clusters of consecutive above-median or below-median return intervals.

Long runs on either side of the median indicate memory beyond adjacent
interval pairs. The no-memory reference is obtained by shuffling the
volatility series and re-extracting intervals, which makes the labels
exchangeable and the run-length survival geometric.
"""

from __future__ import annotations

import numpy as np

from .series import VolatilitySeries

__all__ = [
    "median_split",
    "run_sizes",
    "cluster_survival",
    "shuffle_volatility",
]


def median_split(intervals) -> np.ndarray:
    """Boolean labels: True where the interval is strictly above the median.

    Ties at the median count as below. No interval lies strictly between the
    two middle values, so above the median is above the lower middle value.
    """
    iv = np.asarray(intervals)
    if iv.size == 0:
        raise ValueError("interval sequence must be non-empty")
    k = (iv.size - 1) // 2
    labels = iv > np.partition(iv, k)[k]
    if not labels.any():
        raise ValueError("no above-median clusters")
    return labels


def run_sizes(labels) -> np.ndarray:
    """Sizes of the runs of True in a label sequence, in order."""
    # padded with False, the labels flip on at each run's start and off after its end
    flips = np.flatnonzero(np.diff(np.asarray(labels, dtype=bool), prepend=False, append=False))
    return flips[1::2] - flips[::2]


def cluster_survival(sizes) -> np.ndarray:
    """Complementary cumulative distribution of cluster sizes.

    Returns an array of (k, P(size >= k)) rows for k = 1..max size.
    """
    sizes = np.asarray(sizes)
    if sizes.size == 0:
        raise ValueError("no clusters")
    if sizes.min() < 1:
        raise ValueError("cluster sizes must be >= 1")
    surv = np.bincount(sizes)[:0:-1].cumsum()[::-1] / sizes.size
    return np.column_stack([np.arange(1, surv.size + 1, dtype=float), surv])


def shuffle_volatility(vol: VolatilitySeries, seed: int) -> VolatilitySeries:
    """Uniform random permutation of the volatility values (fixed seed)."""
    rng = np.random.default_rng(seed)
    return VolatilitySeries(values=rng.permutation(vol.values))
