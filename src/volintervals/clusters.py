"""Clusters of consecutive above-median or below-median return intervals.

Long runs on either side of the median indicate memory beyond adjacent
interval pairs. The no-memory reference is obtained by shuffling the
volatility series and re-extracting intervals, which makes the labels
exchangeable and the run-length survival geometric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .intervals import IntervalSequence
from .series import VolatilitySeries

__all__ = [
    "ClusterRuns",
    "median_split",
    "clusters",
    "cluster_survival",
    "shuffle_volatility",
]


@dataclass(frozen=True)
class ClusterRuns:
    above_sizes: np.ndarray
    below_sizes: np.ndarray


def median_split(seq: IntervalSequence) -> np.ndarray:
    """Boolean labels: True where the interval is strictly above the median.

    Ties at the median count as below.
    """
    return seq.intervals > np.median(seq.intervals)


def clusters(labels) -> ClusterRuns:
    """Run-length decomposition of an above/below label sequence."""
    lab = np.asarray(labels, dtype=bool)
    if lab.size == 0:
        raise ValueError("label sequence must be non-empty")
    # boundaries where the label flips
    starts = np.flatnonzero(np.diff(lab)) + 1
    edges = np.concatenate(([0], starts, [lab.size]))
    sizes = np.diff(edges)
    first = lab[edges[:-1]]
    return ClusterRuns(above_sizes=sizes[first], below_sizes=sizes[~first])


def cluster_survival(runs: ClusterRuns, side: str = "above") -> np.ndarray:
    """Complementary cumulative distribution of cluster sizes.

    Returns an array of (k, P(size >= k)) rows for k = 1..max size.
    """
    if side == "above":
        sizes = runs.above_sizes
    elif side == "below":
        sizes = runs.below_sizes
    else:
        raise ValueError(f"side must be 'above' or 'below', got {side!r}")
    if sizes.size == 0:
        raise ValueError(f"no {side}-median clusters")
    kmax = int(sizes.max())
    counts = np.bincount(sizes, minlength=kmax + 1)[1:]
    surv = counts[::-1].cumsum()[::-1] / sizes.size
    ks = np.arange(1, kmax + 1, dtype=float)
    return np.column_stack([ks, surv])


def shuffle_volatility(vol: VolatilitySeries, seed: int) -> VolatilitySeries:
    """Uniform random permutation of the volatility values (fixed seed)."""
    rng = np.random.default_rng(seed)
    return VolatilitySeries(values=rng.permutation(vol.values))
