"""Memory between subsequent return intervals.

The interval sequence is conditioned on the size of the preceding
interval: intervals that have a successor are sorted by value and cut
into equal-count blocks (octiles by default); the conditional sample of
block k is the set of immediate successors of its members. Shuffled
intervals serve as the no-memory baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import ScaledPDF, pdf_estimate, scale_pdf
from .intervals import IntervalSequence

__all__ = [
    "ConditionalMeanCurve",
    "InsufficientPairsError",
    "conditional_blocks",
    "conditional_pdfs",
    "conditional_mean_curve",
    "shuffle_intervals",
]


class InsufficientPairsError(ValueError):
    """Too few successor pairs to form the requested subsets."""


@dataclass(frozen=True)
class ConditionalMeanCurve:
    bin_centers: np.ndarray  # mean conditioning value per block, / <tau>
    means: np.ndarray  # mean successor per block, / <tau>
    stderr: np.ndarray  # scaled standard errors


def conditional_blocks(seq: IntervalSequence, n_subsets: int = 8):
    """Equal-count value-sorted blocks of (predecessor, successor) pairs.

    Returns (cond_blocks, succ_blocks): per block, the conditioning
    interval values and their immediate successors. Ties across block
    boundaries are broken by temporal index (stable sort). Block sizes
    differ by at most 1.
    """
    iv = seq.intervals
    if iv.size < 2 * n_subsets:
        raise InsufficientPairsError(
            f"need at least {2 * n_subsets} intervals for {n_subsets} subsets, have {iv.size}"
        )
    cond, succ = iv[:-1], iv[1:]
    order = np.argsort(cond, kind="stable")
    idx_blocks = np.array_split(order, n_subsets)
    return [cond[b] for b in idx_blocks], [succ[b] for b in idx_blocks]


def conditional_pdfs(seq: IntervalSequence, n_subsets: int = 8,
                     mode: str = "logarithmic", n_bins: int = 20) -> list[ScaledPDF]:
    """Scaled PDF of the successors in each value block, block 1 first.

    Scaling uses the full-sequence mean interval, so the conditional
    curves of different blocks are directly comparable.
    """
    _, succ = conditional_blocks(seq, n_subsets)
    return [scale_pdf(pdf_estimate(s, mode=mode, n_bins=n_bins), seq.mean_interval) for s in succ]


def conditional_mean_curve(seq: IntervalSequence, n_bins: int = 8) -> ConditionalMeanCurve:
    """Mean successor interval vs predecessor size, both scaled by <tau>."""
    cond, succ = conditional_blocks(seq, n_bins)
    mean = seq.mean_interval
    centers = np.array([c.mean() for c in cond]) / mean
    sums = np.array([s.sum() for s in succ], dtype=np.int64)  # exact, as integers
    means = sums / np.array([s.size for s in succ]) / mean
    stderr = np.array([s.std(ddof=1) / np.sqrt(s.size) if s.size > 1 else np.inf for s in succ]) / mean
    return ConditionalMeanCurve(bin_centers=centers, means=means, stderr=stderr)


def shuffle_intervals(seq: IntervalSequence, seed: int) -> IntervalSequence:
    """Uniform random permutation of the interval values (fixed seed).

    Preserves the interval multiset, hence <tau>, exactly; destroys
    temporal order.
    """
    rng = np.random.default_rng(seed)
    return IntervalSequence(threshold_q=seq.threshold_q, intervals=rng.permutation(seq.intervals))
