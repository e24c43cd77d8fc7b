"""Clusters of consecutive above-median or below-median return intervals.

Long runs on either side of the median indicate memory beyond adjacent
interval pairs. The no-memory reference is obtained by shuffling the
volatility series and re-extracting intervals, which makes the labels
exchangeable and the run-length survival geometric.
"""

from __future__ import annotations

import numpy as np

from .intervals import IntervalSequence
from .series import VolatilitySeries

__all__ = [
    "median_split",
    "clusters",
    "cluster_survival",
    "shuffle_volatility",
]


def median_split(seq: IntervalSequence) -> np.ndarray:
    """Boolean labels: True where the interval is strictly above the median.

    Ties at the median count as below.
    """
    return seq.intervals > np.median(seq.intervals)


def clusters(labels) -> dict[str, np.ndarray]:
    """Run-length decomposition of an above/below label sequence: the run
    sizes of each side, keyed "above" and "below"."""
    lab = np.asarray(labels, dtype=bool)
    if lab.size == 0:
        raise ValueError("label sequence must be non-empty")
    runs = {}
    for side, on in (("above", lab), ("below", ~lab)):
        # padded with False, the side's labels flip on at each run's start and off after its end
        flips = np.flatnonzero(np.diff(on, prepend=False, append=False))
        runs[side] = flips[1::2] - flips[::2]
    return runs


def cluster_survival(runs: dict[str, np.ndarray], side: str = "above") -> np.ndarray:
    """Complementary cumulative distribution of cluster sizes.

    Returns an array of (k, P(size >= k)) rows for k = 1..max size.
    """
    if side not in ("above", "below"):
        raise ValueError(f"side must be 'above' or 'below', got {side!r}")
    sizes = runs[side]
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
