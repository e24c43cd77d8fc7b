"""Memory between subsequent return intervals.

The interval sequence is conditioned on the size of the preceding
interval: intervals that have a successor are sorted by value and cut
into equal-count blocks (octiles by default); the conditional sample of
block k is the set of immediate successors of its members. Shuffled
intervals serve as the no-memory baseline.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "min_intervals",
    "conditional_blocks",
    "conditional_mean_curve",
    "shuffle_intervals",
]


def min_intervals(n_subsets: int) -> int:
    """Fewest intervals that `conditional_blocks` splits into n_subsets blocks:
    two successors per block, so each has a standard error."""
    return 2 * n_subsets + 1


def conditional_blocks(intervals, n_subsets: int = 8):
    """Equal-count value-sorted blocks of (predecessor, successor) pairs.

    Returns (cond_blocks, succ_blocks): per block, the conditioning
    interval values and their immediate successors. Ties across block
    boundaries are broken by temporal index (stable sort). Block sizes
    differ by at most 1.
    """
    iv, least = np.asarray(intervals), min_intervals(n_subsets)
    if iv.size < least:
        raise ValueError(f"need at least {least} intervals for {n_subsets} subsets, have {iv.size}")
    cond, succ = iv[:-1], iv[1:]
    order = np.argsort(cond, kind="stable")
    idx_blocks = np.array_split(order, n_subsets)
    return [cond[b] for b in idx_blocks], [succ[b] for b in idx_blocks]


def conditional_mean_curve(blocks, mean_interval: float) -> tuple:
    """Mean successor interval vs predecessor size: (centers, means, stderr),
    per block of `blocks` = conditional_blocks(...) the mean predecessor, mean
    successor and its standard error, / mean_interval."""
    cond, succ = blocks
    centers = np.array([c.mean() for c in cond]) / mean_interval
    sums = np.array([s.sum() for s in succ], dtype=np.int64)  # exact, as integers
    means = sums / np.array([s.size for s in succ]) / mean_interval
    stderr = np.array([s.std(ddof=1) / np.sqrt(s.size) for s in succ]) / mean_interval
    return centers, means, stderr


def shuffle_intervals(intervals, seed: int) -> np.ndarray:
    """Uniform random permutation of the interval values (fixed seed).

    Preserves the interval multiset, hence <tau>, exactly; destroys
    temporal order.
    """
    rng = np.random.default_rng(seed)
    return rng.permutation(intervals)
